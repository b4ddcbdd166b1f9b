#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

int Tracer::begin(std::string name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  const double t = now_ms();
  spans_.push_back({std::move(name), t, t, parent, op_});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int Tracer::add(std::string name, double start_ms, double end_ms, int parent,
                int op) {
  spans_.push_back({std::move(name), start_ms, end_ms, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::per_op_ms(std::string_view name,
                                      int n_ops) const {
  std::vector<double> out(static_cast<std::size_t>(std::max(n_ops, 0)), 0.0);
  for (const Span& s : spans_)
    if (s.name == name && s.op >= 0 && s.op < n_ops)
      out[static_cast<std::size_t>(s.op)] += s.duration();
  return out;
}

std::vector<double> Tracer::self_ms(std::string_view name) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    self[k] += spans_[k].duration();
    if (spans_[k].parent >= 0)
      self[static_cast<std::size_t>(spans_[k].parent)] -= spans_[k].duration();
  }
  std::vector<double> out;
  for (std::size_t k = 0; k < spans_.size(); ++k)
    if (spans_[k].name == name) out.push_back(self[k]);
  return out;
}

std::string Tracer::table() const {
  struct Row {
    std::size_t count = 0;
    double total = 0.0, self = 0.0;
    std::vector<double> durations;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    Row& r = rows[s.name];
    ++r.count;
    r.total += s.duration();
    r.durations.push_back(s.duration());
  }
  for (auto& [name, r] : rows) {
    const std::vector<double> self = self_ms(name);
    for (const double x : self) r.self += x;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.total > b.second.total;
  });
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-24s %8s %12s %12s %10s\n", "layer",
                "count", "total_ms", "self_ms", "p50_ms");
  out += line;
  for (auto& [name, r] : sorted) {
    std::snprintf(line, sizeof line, "%-24s %8zu %12.3f %12.3f %10.3f\n",
                  name.c_str(), r.count, r.total, r.self,
                  median(std::move(r.durations)));
    out += line;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& provenance) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << provenance
    << ",\"traceEvents\":[";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    // Open-loop requests overlap in time; spread them over a few lanes so
    // the viewer does not have to stack overlapping slices on one track.
    const int tid = s.op >= 0 ? 1 + s.op % 16 : 0;
    f << (k ? "," : "") << "{\"name\":" << json_str(s.name)
      << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
      << ",\"ts\":" << json_num(s.start_ms * 1e3)
      << ",\"dur\":" << json_num(s.duration() * 1e3)
      << ",\"args\":{\"op\":" << s.op << "}}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

std::vector<double> op_residuals(const Tracer& tr,
                                 const std::vector<double>& wall_ms,
                                 Result& r) {
  // A span opens right after the caller's clock read and closes right
  // before the next one; more than this between them means time escaped
  // the op span (a preemption between the two reads is far rarer).
  constexpr double kSpanSlackMs = 1.0;
  const int n = static_cast<int>(wall_ms.size());
  const std::vector<double> span = tr.per_op_ms("op", n);
  for (int k = 0; k < n; ++k) {
    const double gap = wall_ms[static_cast<std::size_t>(k)] -
                       span[static_cast<std::size_t>(k)];
    if (!(gap >= 0 && gap <= kSpanSlackMs))
      r.fail("op " + std::to_string(k) + ": span " +
             json_num(span[static_cast<std::size_t>(k)]) +
             " ms vs wall time " +
             json_num(wall_ms[static_cast<std::size_t>(k)]) + " ms");
  }
  const std::vector<double> residual = tr.self_ms("op");
  for (const double x : residual)
    if (x < 0) r.fail("layer spans exceed their op's wall time");
  return residual;
}

double trace_overhead_pct(Result& r, double traced_p50_ms,
                          double untraced_p50_ms) {
  r.detail("traced_op_p50_ms", json_num(traced_p50_ms));
  r.detail("untraced_op_p50_ms", json_num(untraced_p50_ms));
  return untraced_p50_ms > 0 ? 100.0 * (traced_p50_ms / untraced_p50_ms - 1.0)
                             : 0.0;
}

void finish_trace(const Args& args, const Tracer& tracer, Result& r,
                  double overhead_pct) {
  r.add("trace.overhead_pct", overhead_pct, "%");

  const std::string stem = args.run_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed);
  const std::string table = tracer.table();
  std::string echoed;
  for (std::size_t pos = 0; pos < table.size();) {
    const std::size_t nl = table.find('\n', pos);
    echoed += "# " + table.substr(pos, nl - pos) + "\n";
    pos = nl == std::string::npos ? table.size() : nl + 1;
  }
  std::fputs(echoed.c_str(), stdout);
  std::ofstream(stem + ".txt") << table;
  if (!tracer.write_chrome(stem + ".json", args.provenance))
    r.fail("could not write " + stem + ".json");
  r.detail("trace_json", json_str(stem + ".json"));
  r.detail("trace_table", json_str(stem + ".txt"));
}

}  // namespace perfbench
