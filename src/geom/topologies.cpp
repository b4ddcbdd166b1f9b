#include "geom/topologies.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace ind::geom {
namespace {

// Alternating VDD/GND strap positions across [start, start+extent] with
// `pitch` between same-net straps.
struct Strap {
  double pos;
  bool is_vdd;
};

std::vector<Strap> strap_positions(double start, double extent, double pitch) {
  std::vector<Strap> straps;
  const double half = 0.5 * pitch;
  bool vdd = true;
  for (double p = start; p <= start + extent + 1e-12; p += half) {
    straps.push_back({p, vdd});
    vdd = !vdd;
  }
  return straps;
}

}  // namespace

PowerGridNets add_power_grid(Layout& layout, const PowerGridSpec& spec) {
  PowerGridNets nets;
  nets.vdd = layout.find_net("vdd");
  if (nets.vdd < 0) nets.vdd = layout.add_net("vdd", NetKind::Power);
  nets.gnd = layout.find_net("gnd");
  if (nets.gnd < 0) nets.gnd = layout.add_net("gnd", NetKind::Ground);

  const auto h_straps =
      strap_positions(spec.origin.y, spec.extent_y, spec.pitch);
  const auto v_straps =
      strap_positions(spec.origin.x, spec.extent_x, spec.pitch);

  for (const Strap& s : h_straps) {
    const int net = s.is_vdd ? nets.vdd : nets.gnd;
    layout.add_wire(net, spec.horizontal_layer, {spec.origin.x, s.pos},
                    {spec.origin.x + spec.extent_x, s.pos}, spec.strap_width);
  }
  for (const Strap& s : v_straps) {
    const int net = s.is_vdd ? nets.vdd : nets.gnd;
    layout.add_wire(net, spec.vertical_layer, {s.pos, spec.origin.y},
                    {s.pos, spec.origin.y + spec.extent_y}, spec.strap_width);
  }

  // Vias where same-net straps cross.
  const int lo = std::min(spec.horizontal_layer, spec.vertical_layer);
  const int hi = std::max(spec.horizontal_layer, spec.vertical_layer);
  for (const Strap& h : h_straps) {
    for (const Strap& v : v_straps) {
      if (h.is_vdd != v.is_vdd) continue;
      const int net = h.is_vdd ? nets.vdd : nets.gnd;
      layout.add_via(net, {v.pos, h.pos}, lo, hi, /*cuts=*/4);
    }
  }

  // Package pads: `pads_per_side` VDD and GND pads at the north and south
  // ends of vertical (top layer) straps, spread evenly per polarity.
  if (spec.pads_per_side > 0 && !v_straps.empty()) {
    std::vector<std::size_t> vdd_straps, gnd_straps;
    for (std::size_t i = 0; i < v_straps.size(); ++i)
      (v_straps[i].is_vdd ? vdd_straps : gnd_straps).push_back(i);
    auto place = [&](const std::vector<std::size_t>& pool, NetKind kind) {
      if (pool.empty()) return;
      const std::size_t count =
          std::min<std::size_t>(spec.pads_per_side, pool.size());
      const std::size_t stride = std::max<std::size_t>(1, pool.size() / count);
      for (std::size_t k = 0; k < count; ++k) {
        const Strap& s = v_straps[pool[(k * stride) % pool.size()]];
        Pad north, south;
        north.at = {s.pos, spec.origin.y + spec.extent_y};
        south.at = {s.pos, spec.origin.y};
        north.layer = south.layer = spec.vertical_layer;
        north.kind = south.kind = kind;
        north.resistance = south.resistance = spec.pad_resistance;
        north.inductance = south.inductance = spec.pad_inductance;
        layout.add_pad(north);
        layout.add_pad(south);
      }
    };
    place(vdd_straps, NetKind::Power);
    place(gnd_straps, NetKind::Ground);
  }
  return nets;
}

namespace {

void htree_recurse(Layout& layout, int net, const ClockTreeSpec& spec,
                   double cx, double cy, double half, int level, double width,
                   int& leaf_counter) {
  if (level == 0) {
    Receiver r;
    r.at = {cx, cy};
    r.layer = spec.vertical_layer;
    r.signal_net = net;
    // Deterministic hash of the leaf index spreads the sink loads.
    std::uint64_t h = static_cast<std::uint64_t>(leaf_counter) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    const double unit = static_cast<double>(h % 1000) / 999.0;  // [0,1]
    r.load_cap =
        spec.sink_cap * (1.0 + spec.sink_cap_variation * (2.0 * unit - 1.0));
    r.name = spec.net_name + "_sink" + std::to_string(leaf_counter++);
    layout.add_receiver(std::move(r));
    return;
  }
  const double w = std::max(width, spec.min_width);
  // Horizontal bar through the centre.
  layout.add_wire(net, spec.horizontal_layer, {cx - half, cy}, {cx + half, cy},
                  w);
  const int lo = std::min(spec.horizontal_layer, spec.vertical_layer);
  const int hi = std::max(spec.horizontal_layer, spec.vertical_layer);
  for (int sx : {-1, 1}) {
    const double x = cx + sx * half;
    layout.add_via(net, {x, cy}, lo, hi, 4);
    layout.add_wire(net, spec.vertical_layer, {x, cy - 0.5 * half},
                    {x, cy + 0.5 * half}, w);
    for (int sy : {-1, 1}) {
      const double y = cy + sy * 0.5 * half;
      if (level > 1) layout.add_via(net, {x, y}, lo, hi, 4);
      htree_recurse(layout, net, spec, x, y, 0.5 * half, level - 1,
                    w * spec.taper, leaf_counter);
    }
  }
}

}  // namespace

int add_clock_htree(Layout& layout, const ClockTreeSpec& spec) {
  if (spec.levels < 1)
    throw std::invalid_argument("add_clock_htree: levels must be >= 1");
  const int net = layout.add_net(spec.net_name, NetKind::Signal);
  int leaves = 0;
  htree_recurse(layout, net, spec, spec.center.x, spec.center.y,
                0.5 * spec.span, spec.levels, spec.trunk_width, leaves);
  Driver d;
  d.at = spec.center;
  d.layer = spec.horizontal_layer;
  d.signal_net = net;
  d.strength_ohm = spec.driver_res;
  d.slew = spec.slew;
  d.name = spec.net_name + "_root";
  layout.add_driver(std::move(d));
  return net;
}

BusResult add_bus(Layout& layout, const BusSpec& spec) {
  BusResult result;
  if (spec.shield_period > 0) {
    result.shield_net = spec.shield_net >= 0
                            ? spec.shield_net
                            : (layout.find_net("gnd") >= 0
                                   ? layout.find_net("gnd")
                                   : layout.add_net("gnd", NetKind::Ground));
  }

  const double track_pitch = spec.width + spec.spacing;
  double t = spec.axis == Axis::X ? spec.origin.y : spec.origin.x;
  const double along0 = spec.axis == Axis::X ? spec.origin.x : spec.origin.y;

  auto add_track = [&](int net, double pos) {
    Point a, b;
    if (spec.axis == Axis::X) {
      a = {along0, pos};
      b = {along0 + spec.length, pos};
    } else {
      a = {pos, along0};
      b = {pos, along0 + spec.length};
    }
    layout.add_wire(net, spec.layer, a, b, spec.width);
    // Shield tracks tie to the external ground through pads at both ends —
    // a floating shield would neither carry return current nor hold the
    // drivers' DC reference.
    if (net == result.shield_net) {
      for (const Point& at : {a, b}) {
        Pad pad;
        pad.at = at;
        pad.layer = spec.layer;
        pad.kind = NetKind::Ground;
        layout.add_pad(pad);
      }
    }
    return std::pair{a, b};
  };

  int since_shield = 0;
  for (int bit = 0; bit < spec.bits; ++bit) {
    if (spec.shield_period > 0 && bit > 0 &&
        since_shield == spec.shield_period) {
      add_track(result.shield_net, t);
      t += track_pitch;
      since_shield = 0;
    }
    const int net =
        layout.add_net(spec.prefix + std::to_string(bit), NetKind::Signal);
    const auto [a, b] = add_track(net, t);
    result.signal_nets.push_back(net);
    result.track_positions.push_back(t);
    if (spec.add_drivers) {
      Driver d;
      d.at = a;
      d.layer = spec.layer;
      d.signal_net = net;
      d.strength_ohm = spec.driver_res;
      d.slew = spec.slew;
      d.name = spec.prefix + std::to_string(bit) + "_drv";
      layout.add_driver(std::move(d));
      Receiver r;
      r.at = b;
      r.layer = spec.layer;
      r.signal_net = net;
      r.load_cap = spec.sink_cap;
      r.name = spec.prefix + std::to_string(bit) + "_rcv";
      layout.add_receiver(std::move(r));
    }
    t += track_pitch;
    ++since_shield;
  }
  // Outer shields book-end the bus when shielding is requested.
  if (spec.shield_period > 0) add_track(result.shield_net, t);
  return result;
}

int add_ground_plane(Layout& layout, const GroundPlaneSpec& spec) {
  int net = spec.net;
  if (net < 0) {
    net = layout.find_net("gnd");
    if (net < 0) net = layout.add_net("gnd", NetKind::Ground);
  }
  const int lines =
      std::max(1, static_cast<int>(spec.extent_across / spec.fill_pitch) + 1);
  for (int i = 0; i < lines; ++i) {
    const double off = i * spec.fill_pitch;
    Point a, b;
    if (spec.axis == Axis::X) {
      a = {spec.origin.x, spec.origin.y + off};
      b = {spec.origin.x + spec.extent_along, spec.origin.y + off};
    } else {
      a = {spec.origin.x + off, spec.origin.y};
      b = {spec.origin.x + off, spec.origin.y + spec.extent_along};
    }
    layout.add_wire(net, spec.layer, a, b, spec.fill_width);
  }
  return net;
}

InterdigitatedResult add_interdigitated(Layout& layout,
                                        const InterdigitatedSpec& spec) {
  if (spec.fingers < 1)
    throw std::invalid_argument("add_interdigitated: fingers must be >= 1");
  InterdigitatedResult result;
  result.signal_net = layout.add_net("sig_interdig", NetKind::Signal);
  result.ground_net = layout.find_net("gnd");
  if (result.ground_net < 0)
    result.ground_net = layout.add_net("gnd", NetKind::Ground);

  const double fw = spec.total_signal_width / spec.fingers;
  double y = spec.origin.y;
  std::vector<double> finger_ys;
  for (int f = 0; f < spec.fingers; ++f) {
    layout.add_wire(result.signal_net, spec.layer, {spec.origin.x, y},
                    {spec.origin.x + spec.length, y}, fw);
    finger_ys.push_back(y);
    if (f + 1 < spec.fingers) {
      // Grounded shield between fingers, stopped short of the end straps
      // (which run orthogonally on the same layer at both ends).
      const double margin = fw + spec.spacing;
      const double shield_y =
          y + 0.5 * fw + spec.spacing + 0.5 * spec.shield_width;
      layout.add_wire(result.ground_net, spec.layer,
                      {spec.origin.x + margin, shield_y},
                      {spec.origin.x + spec.length - margin, shield_y},
                      spec.shield_width);
      y = shield_y + 0.5 * spec.shield_width + spec.spacing + 0.5 * fw;
    }
  }
  // End straps keep the fingers one electrical net.
  if (spec.fingers > 1) {
    const double y_first = finger_ys.front(), y_last = finger_ys.back();
    layout.add_wire(result.signal_net, spec.layer, {spec.origin.x, y_first},
                    {spec.origin.x, y_last}, fw);
    layout.add_wire(result.signal_net, spec.layer,
                    {spec.origin.x + spec.length, y_first},
                    {spec.origin.x + spec.length, y_last}, fw);
  }
  result.metallization_width = (finger_ys.back() - finger_ys.front()) + fw;
  return result;
}

BusResult add_twisted_bundle(Layout& layout, const TwistedBundleSpec& spec) {
  if (spec.regions < 1)
    throw std::invalid_argument("add_twisted_bundle: regions must be >= 1");
  BusResult result;
  const double pitch = spec.width + spec.spacing;
  const double region_len = spec.length / spec.regions;
  const double jog_dx = 2.0 * spec.width;  // stagger jogs so nodes stay distinct
  const int lo = std::min(spec.layer, spec.jog_layer);
  const int hi = std::max(spec.layer, spec.jog_layer);

  if (spec.add_ground_return) {
    result.shield_net = layout.find_net("gnd");
    if (result.shield_net < 0)
      result.shield_net = layout.add_net("gnd", NetKind::Ground);
    // Straight return one track below the bundle, tied to the external
    // ground through pads at both ends (otherwise it would float and the
    // drivers' pull-downs would have no DC reference).
    const double ry = spec.origin.y - pitch;
    layout.add_wire(result.shield_net, spec.layer, {spec.origin.x, ry},
                    {spec.origin.x + spec.length, ry}, spec.width);
    for (const double rx : {spec.origin.x, spec.origin.x + spec.length}) {
      Pad pad;
      pad.at = {rx, ry};
      pad.layer = spec.layer;
      pad.kind = NetKind::Ground;
      layout.add_pad(pad);
    }
  }

  auto track_y = [&](int track) { return spec.origin.y + track * pitch; };
  // Twisting per Zhong et al. [23]: tracks 2k/2k+1 form a complementary pair
  // (the "complementary and opposite current loops"); pair k swaps its two
  // tracks whenever bit k of the region index is set. Any two pairs then see
  // a balanced schedule of relative orientations, so the loop-to-loop flux
  // contributions cancel over 2^(k+1)-region spans.
  auto track_of = [&](int bit, int region) {
    if (!spec.twisted) return bit;
    const int partner = bit ^ 1;
    if (partner >= spec.bits) return bit;  // unpaired last track stays put
    const int pair = bit / 2;
    const bool swapped = (region >> pair) & 1;
    return swapped ? partner : bit;
  };

  for (int bit = 0; bit < spec.bits; ++bit) {
    const int net =
        layout.add_net("tw" + std::to_string(bit), NetKind::Signal);
    result.signal_nets.push_back(net);
    result.track_positions.push_back(track_y(bit));

    // Crossover construction: at a boundary, net n drops to the jog layer at
    // its own staggered x, runs the vertical hop there, continues on the
    // layer below (jog_layer - 1) to a shared clearance point past every
    // other net's jog, and pops back up. Using two jog layers and staggered
    // x positions keeps all nets of the bundle short-free.
    const double clearance = (spec.bits + 1) * jog_dx;
    const int hlayer = spec.jog_layer - 1;  // horizontal crossover runs
    double prev_x = spec.origin.x;
    for (int region = 0; region < spec.regions; ++region) {
      const double y = track_y(track_of(bit, region));
      const double boundary = spec.origin.x + (region + 1) * region_len;
      const bool last = region == spec.regions - 1;
      const double y_next = last ? y : track_y(track_of(bit, region + 1));
      const double jog_x = boundary + bit * jog_dx;
      const double end_x = last ? spec.origin.x + spec.length
                                : (y_next == y ? boundary + clearance : jog_x);
      layout.add_wire(net, spec.layer, {prev_x, y}, {end_x, y}, spec.width);
      if (!last && y_next != y) {
        // Down to the jog layer, vertical hop, lateral clearance run on the
        // layer below, then back up to the routing layer.
        layout.add_via(net, {jog_x, y}, lo, hi);
        layout.add_wire(net, spec.jog_layer, {jog_x, y}, {jog_x, y_next},
                        spec.width);
        layout.add_via(net, {jog_x, y_next}, hlayer, spec.jog_layer);
        layout.add_wire(net, hlayer, {jog_x, y_next},
                        {boundary + clearance, y_next}, spec.width);
        layout.add_via(net, {boundary + clearance, y_next}, hlayer, hi);
        prev_x = boundary + clearance;
      } else {
        prev_x = end_x;
      }
    }

    Driver d;
    d.at = {spec.origin.x, track_y(track_of(bit, 0))};
    d.layer = spec.layer;
    d.signal_net = net;
    d.strength_ohm = spec.driver_res;
    d.slew = spec.slew;
    d.name = "tw" + std::to_string(bit) + "_drv";
    layout.add_driver(std::move(d));
    Receiver r;
    r.at = {spec.origin.x + spec.length,
            track_y(track_of(bit, spec.regions - 1))};
    r.layer = spec.layer;
    r.signal_net = net;
    r.load_cap = spec.sink_cap;
    r.name = "tw" + std::to_string(bit) + "_rcv";
    layout.add_receiver(std::move(r));
  }
  return result;
}

DriverReceiverGridResult add_driver_receiver_grid(
    Layout& layout, const DriverReceiverGridSpec& spec) {
  DriverReceiverGridResult result;
  result.grid_nets = add_power_grid(layout, spec.grid);

  result.signal_net = layout.add_net("sig", NetKind::Signal);
  const double cy = spec.grid.origin.y + 0.5 * spec.grid.extent_y;
  const double cx = spec.grid.origin.x +
                    0.5 * (spec.grid.extent_x - spec.signal_length);
  Point west{cx, cy};
  Point east{cx + spec.signal_length, cy};
  layout.add_wire(result.signal_net, spec.signal_layer, west, east,
                  spec.signal_width);

  Driver d;
  d.at = west;
  d.layer = spec.signal_layer;
  d.signal_net = result.signal_net;
  d.strength_ohm = spec.driver_res;
  d.slew = spec.slew;
  d.name = "sig_drv";
  layout.add_driver(std::move(d));

  Receiver r;
  r.at = east;
  r.layer = spec.signal_layer;
  r.signal_net = result.signal_net;
  r.load_cap = spec.sink_cap;
  r.name = "sig_rcv";
  layout.add_receiver(std::move(r));
  return result;
}

}  // namespace ind::geom
