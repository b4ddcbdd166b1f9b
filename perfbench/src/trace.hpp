// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, op). Spans opened with begin()/Scope
// nest through a stack (the benchmark is single-threaded where it records
// them); serve_mix adds spans after the fact from client timestamps and
// server-reported stage times with add(). Everything stays in memory until
// the run ends, then becomes a per-layer table (count, total, self, p50) and
// Chrome trace-event JSON.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;  ///< relative to the tracer's origin
    double end_ms = 0.0;
    int parent = -1;
    int op = -1;
    double duration() const { return end_ms - start_ms; }
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its id.
  int begin(std::string name);
  void end(int id);
  /// Records a finished span with explicit times (ms since origin()).
  int add(std::string name, double start_ms, double end_ms, int parent,
          int op);
  /// Ops tag every span opened after this call.
  void set_op(int op) { op_ = op; }
  double now_ms() const { return ms_between(origin_, Clock::now()); }
  double to_ms(Clock::time_point t) const { return ms_between(origin_, t); }

  /// RAII form of begin()/end().
  class Scope {
   public:
    Scope(Tracer* t, std::string name)
        : t_(t), id_(t ? t->begin(std::move(name)) : -1) {}
    ~Scope() {
      if (t_) t_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

  /// Total time of spans named `name` in each op 0..n_ops-1.
  std::vector<double> per_op_ms(std::string_view name, int n_ops) const;
  /// Self time of each span named `name`, in order: its duration minus its
  /// direct children's.
  std::vector<double> self_ms(std::string_view name) const;

  /// Per-layer table: one row per span name with count, total, self and
  /// p50 of the span durations, sorted by total time.
  std::string table() const;
  /// Chrome trace-event JSON ("X" events, microseconds); the provenance
  /// block goes under "otherData". Returns false on I/O failure.
  bool write_chrome(const std::string& path,
                    const std::string& provenance) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int op_ = -1;
};

/// Residual of each op of a closed-loop traced run: the "op" span's self
/// time, i.e. op time outside its layer spans, so layer spans plus residual
/// add up to the op span. Fails `r` when a residual is negative or when an
/// op span differs from the op's wall time, measured by the caller outside
/// the span, by more than kSpanSlackMs.
std::vector<double> op_residuals(const Tracer& tr,
                                 const std::vector<double>& wall_ms,
                                 Result& r);

}  // namespace perfbench
