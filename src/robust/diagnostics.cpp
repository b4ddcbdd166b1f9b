#include "robust/diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "runtime/metrics.hpp"

namespace ind::robust {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Ok: return "ok";
    case SolveStatus::Recovered: return "recovered";
    case SolveStatus::NonConverged: return "nonconverged";
    case SolveStatus::Failed: return "failed";
  }
  return "unknown";
}

const char* to_string(RecoveryKind kind) {
  switch (kind) {
    case RecoveryKind::Retry: return "retry";
    case RecoveryKind::GminRegularization: return "gmin";
    case RecoveryKind::DenseFallback: return "dense_fallback";
    case RecoveryKind::DtHalving: return "dt_halve";
    case RecoveryKind::KrylovDeflation: return "krylov_deflate";
    case RecoveryKind::DampedRestart: return "damped_restart";
    case RecoveryKind::ArtifactRecompute: return "artifact_recompute";
    case RecoveryKind::BudgetExceeded: return "budget_exceeded";
    case RecoveryKind::GmresRestart: return "gmres_restart";
    case RecoveryKind::MixedPrecisionFallback: return "mixed_precision_fallback";
  }
  return "unknown";
}

const char* to_string(CrashKind kind) {
  switch (kind) {
    case CrashKind::None: return "none";
    case CrashKind::Signal: return "signal";
    case CrashKind::OomKill: return "oom_kill";
    case CrashKind::RlimitCpu: return "rlimit_cpu";
    case CrashKind::RlimitMem: return "rlimit_mem";
    case CrashKind::ExitError: return "exit_error";
  }
  return "unknown";
}

void SolveReport::raise_status(SolveStatus s) {
  if (static_cast<int>(s) > static_cast<int>(status)) status = s;
}

void SolveReport::add_action(RecoveryKind kind, int attempt, double magnitude,
                             std::string where) {
  actions.push_back({kind, attempt, magnitude, std::move(where)});
  raise_status(SolveStatus::Recovered);
}

void SolveReport::merge(const SolveReport& sub) {
  raise_status(sub.status);
  actions.insert(actions.end(), sub.actions.begin(), sub.actions.end());
  condition_estimate = std::max(condition_estimate, sub.condition_estimate);
  pivot_growth = std::max(pivot_growth, sub.pivot_growth);
  if (sub.residual_norm >= 0.0) residual_norm = sub.residual_norm;
  if (!sub.detail.empty()) {
    if (!detail.empty()) detail += "; ";
    detail += sub.detail;
  }
}

void SolveReport::record(std::string_view site) const {
  auto& reg = runtime::MetricsRegistry::instance();
  const std::string prefix = "robust." + std::string(site);
  reg.add_count(prefix + ".solves", 1);
  if (status != SolveStatus::Ok)
    reg.add_count(prefix + "." + to_string(status), 1);
  for (const RecoveryAction& a : actions)
    reg.add_count(std::string("robust.action.") + to_string(a.kind), 1);
  if (condition_estimate > 0.0 && std::isfinite(condition_estimate))
    reg.max_count(prefix + ".max_log10_cond",
                  static_cast<std::int64_t>(
                      std::lround(std::log10(condition_estimate))));
}

std::string SolveReport::to_json() const {
  std::ostringstream os;
  os << "{\"status\": \"" << to_string(status) << '"';
  if (condition_estimate > 0.0)
    os << ", \"condition_estimate\": " << condition_estimate;
  if (pivot_growth > 0.0) os << ", \"pivot_growth\": " << pivot_growth;
  if (residual_norm >= 0.0) os << ", \"residual_norm\": " << residual_norm;
  if (!actions.empty()) {
    std::map<std::string, int> counts;
    for (const RecoveryAction& a : actions) ++counts[to_string(a.kind)];
    os << ", \"actions\": {";
    bool first = true;
    for (const auto& [name, n] : counts) {
      if (!first) os << ", ";
      first = false;
      os << '"' << name << "\": " << n;
    }
    os << '}';
  }
  os << '}';
  return os.str();
}

}  // namespace ind::robust
