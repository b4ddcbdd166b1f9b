#include "geom/layout_io.hpp"

#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ind::geom {
namespace {

const char* kind_name(NetKind k) {
  switch (k) {
    case NetKind::Signal: return "signal";
    case NetKind::Power: return "power";
    case NetKind::Ground: return "ground";
    case NetKind::Shield: return "shield";
    case NetKind::Substrate: return "substrate";
  }
  return "signal";
}

NetKind kind_from(const std::string& s) {
  if (s == "signal") return NetKind::Signal;
  if (s == "power") return NetKind::Power;
  if (s == "ground") return NetKind::Ground;
  if (s == "shield") return NetKind::Shield;
  if (s == "substrate") return NetKind::Substrate;
  throw std::invalid_argument("unknown net kind: " + s);
}

double to_um(double metres) { return metres * 1e6; }

}  // namespace

void write_layout(std::ostream& os, const Layout& layout) {
  os << "# inductance101 layout\n";
  os << "tech default\n";
  for (std::size_t n = 0; n < layout.num_nets(); ++n) {
    const NetInfo& net = layout.net(static_cast<int>(n));
    os << "net " << net.name << ' ' << kind_name(net.kind) << "\n";
  }
  for (const Segment& s : layout.segments()) {
    os << "wire "
       << (s.net >= 0 ? layout.net(s.net).name : std::string("-")) << ' '
       << s.layer << ' ' << to_um(s.a.x) << ' ' << to_um(s.a.y) << ' '
       << to_um(s.b.x) << ' ' << to_um(s.b.y) << ' ' << to_um(s.width)
       << "\n";
  }
  for (const Via& v : layout.vias()) {
    os << "via " << (v.net >= 0 ? layout.net(v.net).name : std::string("-"))
       << ' ' << to_um(v.at.x) << ' ' << to_um(v.at.y) << ' ' << v.lower_layer
       << ' ' << v.upper_layer << ' ' << v.cuts << "\n";
  }
  for (const Pad& p : layout.pads()) {
    os << "pad " << kind_name(p.kind) << ' ' << p.layer << ' '
       << to_um(p.at.x) << ' ' << to_um(p.at.y) << ' ' << p.resistance << ' '
       << p.inductance << "\n";
  }
  for (const Driver& d : layout.drivers()) {
    os << "drv " << layout.net(d.signal_net).name << ' ' << d.layer << ' '
       << to_um(d.at.x) << ' ' << to_um(d.at.y) << ' ' << d.strength_ohm
       << ' ' << d.slew << ' ' << d.start_time << ' '
       << (d.rising ? 'r' : 'f') << ' '
       << (d.name.empty() ? std::string("-") : d.name) << "\n";
  }
  for (const Receiver& r : layout.receivers()) {
    os << "rcv " << layout.net(r.signal_net).name << ' ' << r.layer << ' '
       << to_um(r.at.x) << ' ' << to_um(r.at.y) << ' ' << r.load_cap << ' '
       << (r.name.empty() ? std::string("-") : r.name) << "\n";
  }
}

Layout read_layout(std::istream& is) { return read_layout(is, nullptr); }

Layout read_layout(std::istream& is, robust::ValidationReport* validation) {
  Layout layout(default_tech());
  std::map<std::string, int> nets;
  auto net_id = [&](const std::string& name, int line) {
    const auto it = nets.find(name);
    if (it == nets.end())
      throw std::invalid_argument("layout_io: line " + std::to_string(line) +
                                  ": unknown net '" + name + "'");
    return it->second;
  };

  std::string raw;
  int line_no = 0;
  while (std::getline(is, raw)) {
    ++line_no;
    std::istringstream line(raw);
    std::string tag;
    if (!(line >> tag) || tag[0] == '#') continue;
    try {
      if (tag == "tech") {
        std::string which;
        line >> which;  // only "default" supported
      } else if (tag == "net") {
        std::string name, kind;
        if (!(line >> name >> kind))
          throw std::invalid_argument("net record too short");
        nets[name] = layout.add_net(name, kind_from(kind));
      } else if (tag == "wire") {
        std::string net;
        int layer;
        double x0, y0, x1, y1, w;
        if (!(line >> net >> layer >> x0 >> y0 >> x1 >> y1 >> w))
          throw std::invalid_argument("wire record too short");
        if (w <= 0.0)
          throw std::invalid_argument("wire width must be positive");
        layout.add_wire(net_id(net, line_no), layer, {um(x0), um(y0)},
                        {um(x1), um(y1)}, um(w));
      } else if (tag == "via") {
        std::string net;
        double x, y;
        int lo, hi, cuts;
        if (!(line >> net >> x >> y >> lo >> hi >> cuts))
          throw std::invalid_argument("via record too short");
        layout.add_via(net_id(net, line_no), {um(x), um(y)}, lo, hi, cuts);
      } else if (tag == "pad") {
        std::string kind;
        int layer;
        double x, y, r, l;
        if (!(line >> kind >> layer >> x >> y >> r >> l))
          throw std::invalid_argument("pad record too short");
        Pad pad;
        pad.kind = kind_from(kind);
        pad.layer = layer;
        pad.at = {um(x), um(y)};
        pad.resistance = r;
        pad.inductance = l;
        layout.add_pad(pad);
      } else if (tag == "drv") {
        std::string net, name;
        int layer;
        double x, y, ohms, slew, start;
        char dir;
        if (!(line >> net >> layer >> x >> y >> ohms >> slew >> start >>
              dir >> name))
          throw std::invalid_argument("drv record too short");
        Driver d;
        d.signal_net = net_id(net, line_no);
        d.layer = layer;
        d.at = {um(x), um(y)};
        d.strength_ohm = ohms;
        d.slew = slew;
        d.start_time = start;
        d.rising = dir == 'r';
        if (name != "-") d.name = name;
        layout.add_driver(std::move(d));
      } else if (tag == "rcv") {
        std::string net, name;
        int layer;
        double x, y, cap;
        if (!(line >> net >> layer >> x >> y >> cap >> name))
          throw std::invalid_argument("rcv record too short");
        Receiver r;
        r.signal_net = net_id(net, line_no);
        r.layer = layer;
        r.at = {um(x), um(y)};
        r.load_cap = cap;
        if (name != "-") r.name = name;
        layout.add_receiver(std::move(r));
      } else {
        throw std::invalid_argument("unknown record '" + tag + "'");
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("layout_io: line " + std::to_string(line_no) +
                                  ": " + e.what());
    }
  }
  if (validation) *validation = robust::validate(layout);
  return layout;
}

Layout layout_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_layout(is);
}

}  // namespace ind::geom
