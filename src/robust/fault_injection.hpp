// Deterministic fault injection for exercising the numerical-recovery paths.
//
// Modelled on the runtime's IND_THREADS override: the IND_FAULT_INJECT
// environment variable selects faults to force at chosen call indices, e.g.
//
//   IND_FAULT_INJECT="dense_lu_pivot@0;transient_step@5,6;krylov_block@1"
//
// Entries are ';'-separated `site@indices`, indices are ','-separated
// 0-based call counts (per site), `a-b` ranges, or `*` (every call). Each
// guarded call site asks fire(Site) exactly once per logical operation; the
// per-site counter advances only while injection is active, so the indices
// are deterministic and a retry rung observes the *next* index — which is
// how a single-index injection recovers bitwise-identically to the
// unperturbed run.
//
// Sites live in the recovery wrappers and solver engines, never inside the
// raw la:: kernels, so un-guarded low-level callers are not destabilised.
//
// When the variable is unset the entire hook is one relaxed atomic load;
// compiling with -DIND_DISABLE_FAULT_INJECTION removes it entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace ind::robust::fault {

enum class Site {
  DenseLuPivot,    ///< dense (real or complex) factorisation reports singular
  SparseLuPivot,   ///< sparse factorisation reports singular
  TransientStep,   ///< a transient step solve produces non-finite state
  KrylovBlock,     ///< a PRIMA Krylov block column comes back non-finite
  LadderJacobian,  ///< the ladder-fit Newton Jacobian appears singular
  StoreRead,       ///< a cached artifact read is treated as corrupt
  BudgetCheck,     ///< a govern::checkpoint() behaves as if the budget tripped
  ServeRead,       ///< a serve request frame is treated as malformed
  StoreWrite,      ///< an artifact commit is torn mid-write (partial .tmp left)
  ServeSend,       ///< a serve response send fails as if the peer vanished
  GmresIter,       ///< a GMRES iteration is treated as a numerical breakdown
  WorkerExec,      ///< a dispatched serve worker is killed mid-flight
};
inline constexpr int kSiteCount = 12;

namespace detail {
extern std::atomic<bool> g_active;
bool fire_slow(Site site);
}  // namespace detail

/// True while any injection spec (env or configure()) is active.
inline bool enabled() {
#ifdef IND_DISABLE_FAULT_INJECTION
  return false;
#else
  return detail::g_active.load(std::memory_order_relaxed);
#endif
}

/// Advances the per-site call counter and returns true when this call index
/// was selected for injection. No-op (and no counter advance) when inactive.
inline bool fire(Site site) {
#ifdef IND_DISABLE_FAULT_INJECTION
  (void)site;
  return false;
#else
  return detail::g_active.load(std::memory_order_relaxed) &&
         detail::fire_slow(site);
#endif
}

/// Programmatic override (tests): installs `spec` in the IND_FAULT_INJECT
/// grammar and zeroes every per-site counter. An empty spec deactivates.
/// Throws std::invalid_argument on a malformed spec.
void configure(const std::string& spec);

/// Deactivates injection and zeroes the counters.
void clear();

/// Number of times `site` actually fired since the last configure()/clear().
std::int64_t fired(Site site);

/// Call count observed at `site` since the last configure()/clear().
std::int64_t calls(Site site);

}  // namespace ind::robust::fault
