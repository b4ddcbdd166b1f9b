#include "spice_import.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <istream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace ind::circuit {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Splits a card into tokens, treating PWL(...) as a single token stream:
// parentheses and commas become spaces first.
std::vector<std::string> tokenize(const std::string& line) {
  std::string cleaned = line;
  for (char& c : cleaned)
    if (c == '(' || c == ')' || c == ',' || c == '=') c = ' ';
  std::istringstream is(cleaned);
  std::vector<std::string> toks;
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

}  // namespace

double parse_spice_value(const std::string& token) {
  const std::string s = lower(token);
  std::size_t pos = 0;
  double value;
  try {
    value = std::stod(s, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_spice_value: not a number: " + token);
  }
  const std::string suffix = s.substr(pos);
  if (suffix.empty()) return value;
  if (suffix.rfind("meg", 0) == 0) return value * 1e6;
  if (suffix.rfind("mil", 0) == 0) return value * 25.4e-6;
  switch (suffix[0]) {
    case 't': return value * 1e12;
    case 'g': return value * 1e9;
    case 'k': return value * 1e3;
    case 'm': return value * 1e-3;
    case 'u': return value * 1e-6;
    case 'n': return value * 1e-9;
    case 'p': return value * 1e-12;
    case 'f': return value * 1e-15;
    default: return value;  // unit tails like "ohm", "v", "hz"
  }
}

SpiceImportResult parse_spice(std::istream& is) {
  SpiceImportResult out;
  Netlist& nl = out.netlist;
  std::map<std::string, std::size_t> inductor_by_name;
  struct PendingK {
    std::string l1, l2;
    double coeff;
    std::size_t line_no;
  };
  std::vector<PendingK> pending_k;

  auto node_of = [&](const std::string& name) -> NodeId {
    const std::string n = lower(name);
    if (n == "0" || n == "gnd") return kGround;
    return nl.node(n);
  };
  auto source_waveform = [&](const std::vector<std::string>& toks,
                             std::size_t start) -> Pwl {
    if (start >= toks.size()) return Pwl::constant(0.0);
    const std::string kind = lower(toks[start]);
    if (kind == "dc") {
      return Pwl::constant(
          start + 1 < toks.size() ? parse_spice_value(toks[start + 1]) : 0.0);
    }
    if (kind == "pwl") {
      std::vector<std::pair<double, double>> pts;
      for (std::size_t k = start + 1; k + 1 < toks.size(); k += 2)
        pts.emplace_back(parse_spice_value(toks[k]),
                         parse_spice_value(toks[k + 1]));
      return Pwl(std::move(pts));
    }
    // Bare numeric value == DC.
    return Pwl::constant(parse_spice_value(toks[start]));
  };

  std::string raw;
  std::string pending_line;
  std::size_t line_no = 0;          // 1-based line currently being read
  std::size_t pending_start = 0;    // line where the pending card began
  auto flush_line = [&](const std::string& line, std::size_t card_line) {
    if (line.empty()) return;
    const char lead = static_cast<char>(std::tolower(line[0]));
    if (lead == '*' || lead == '.') return;  // comment / control card
    const auto toks = tokenize(line);
    if (toks.empty()) return;
    const std::string name = lower(toks[0]);
    try {
      switch (lead) {
        case 'r':
          if (toks.size() < 4) throw std::invalid_argument("R card too short");
          nl.add_resistor(node_of(toks[1]), node_of(toks[2]),
                          parse_spice_value(toks[3]));
          ++out.parsed_cards;
          break;
        case 'c':
          if (toks.size() < 4) throw std::invalid_argument("C card too short");
          nl.add_capacitor(node_of(toks[1]), node_of(toks[2]),
                           parse_spice_value(toks[3]));
          ++out.parsed_cards;
          break;
        case 'l':
          if (toks.size() < 4) throw std::invalid_argument("L card too short");
          inductor_by_name[name] = nl.add_inductor(
              node_of(toks[1]), node_of(toks[2]), parse_spice_value(toks[3]));
          ++out.parsed_cards;
          break;
        case 'k': {
          if (toks.size() < 4) throw std::invalid_argument("K card too short");
          const double coeff = parse_spice_value(toks[3]);
          // A physical coupling coefficient satisfies |k| <= 1; beyond that
          // the inductance block goes indefinite (Section 4), so reject the
          // card at the parse boundary rather than in the solver.
          if (!(std::abs(coeff) <= 1.0))
            throw std::invalid_argument(
                "K card coupling coefficient |k| = " + toks[3] +
                " exceeds 1");
          pending_k.push_back(
              {lower(toks[1]), lower(toks[2]), coeff, card_line});
          ++out.parsed_cards;
          break;
        }
        case 'v':
          if (toks.size() < 3) throw std::invalid_argument("V card too short");
          nl.add_vsource(node_of(toks[1]), node_of(toks[2]),
                         source_waveform(toks, 3));
          ++out.parsed_cards;
          break;
        case 'i':
          if (toks.size() < 3) throw std::invalid_argument("I card too short");
          nl.add_isource(node_of(toks[1]), node_of(toks[2]),
                         source_waveform(toks, 3));
          ++out.parsed_cards;
          break;
        default:
          ++out.skipped_cards;  // B, E, G, M, X, ... unsupported
          break;
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(e.what()) + " in card: " + line +
                                  " (line " + std::to_string(card_line) + ")");
    }
  };

  while (std::getline(is, raw)) {
    ++line_no;
    // Continuation lines start with '+'.
    if (!raw.empty() && raw[0] == '+') {
      pending_line += ' ' + raw.substr(1);
      continue;
    }
    flush_line(pending_line, pending_start);
    pending_line = raw;
    pending_start = line_no;
  }
  flush_line(pending_line, pending_start);

  // Resolve K cards now that every inductor is known.
  for (const PendingK& k : pending_k) {
    const auto i1 = inductor_by_name.find(k.l1);
    const auto i2 = inductor_by_name.find(k.l2);
    if (i1 == inductor_by_name.end() || i2 == inductor_by_name.end())
      throw std::invalid_argument("parse_spice: K card references unknown " +
                                  k.l1 + "/" + k.l2 + " (line " +
                                  std::to_string(k.line_no) + ")");
    const double m =
        k.coeff * std::sqrt(nl.inductors()[i1->second].henries *
                            nl.inductors()[i2->second].henries);
    nl.add_mutual(i1->second, i2->second, m);
  }
  out.validation = robust::validate(nl);
  return out;
}

SpiceImportResult parse_spice(const std::string& deck) {
  std::istringstream is(deck);
  return parse_spice(is);
}

}  // namespace ind::circuit
