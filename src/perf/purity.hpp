#pragma once
/// \file purity.hpp
/// Warm-path allocation-purity sanitizer.
///
/// PRs 5-7 made the warm Picard path a pure value pipeline: assembly-plan
/// refills, AMG hierarchy reuse checks, smoother rebinds and fused momentum
/// ops move values through frozen structure with no sort, no searches and
/// no steady-state allocation. That invariant is the repo's central
/// performance claim, and this layer makes it machine-checked the same
/// way par/contract.hpp machine-checks the threading contract:
///
///   * a global operator new/new[]/delete interposition (purity.cpp)
///     counts every heap allocation in the process;
///   * EXW_PURITY_REGION("name") opens a thread-local RAII *purity
///     region*: allocations and frees inside it are attributed to the
///     named region (nested regions all see the activity, like nested
///     Tracer phases);
///   * EXW_PURITY_ALLOW("reason") marks a scope whose allocations are
///     explicitly allowlisted (simulated-NIC message buffers, collective
///     payload staging, first-refill scratch priming) — they are counted
///     separately and never flagged;
///   * fatal mode (EXW_PURITY_FATAL=1, or purity::set_fatal(true))
///     turns any non-allowlisted allocation inside a region into an
///     exw::Error naming the innermost region and the file:line where it
///     was opened;
///   * purity::report() / purity::region() expose the counters, mirroring
///     contract::report(); perf::Tracer additionally folds process-wide
///     allocation deltas into every open phase (PhaseStats::allocs).
///
/// Region context propagates through par::ThreadPool: when a warm entry
/// point opens a region on the orchestrator and dispatches rank bodies,
/// each pool worker inherits the region (purity::capture() +
/// ScopedRegionInherit), so allocations inside rank bodies are checked
/// too. Frames are fixed-capacity thread-locals and the interposition
/// only touches relaxed atomics and those frames, so the layer is
/// TSan-clean and never allocates from inside the allocator hooks.
///
/// Everything compiles away when EXW_PURITY_CHECKS=OFF (the CMake
/// option; default ON except Release, and forced OFF under
/// EXW_SANITIZE=address/leak, whose runtimes own operator new): the
/// macros expand to ((void)0) and no interposition is linked, so
/// production builds are bit-for-bit what they were before this layer.
///
/// The static half of the discipline is tools/lint_warm_path.py: it
/// walks the call graph from functions annotated EXW_WARM_FN and flags
/// reachable sorts / searches / container growth / allocation, with a
/// committed per-file ratchet. DESIGN.md §14 documents both halves.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#ifndef EXW_PURITY_CHECKS_ENABLED
#define EXW_PURITY_CHECKS_ENABLED 0
#endif

/// Annotation for warm-path entry points. Expands to nothing; it is the
/// marker tools/lint_warm_path.py uses as a call-graph root, and a signal
/// to readers that the function body must stay a pure value pipeline.
#define EXW_WARM_FN

namespace exw::perf::purity {

/// True when the build carries the interposition (EXW_PURITY_CHECKS=ON).
constexpr bool enabled() { return EXW_PURITY_CHECKS_ENABLED != 0; }

/// Process-wide allocation totals (all threads, regions or not).
/// All-zero when the checks are compiled out.
struct Totals {
  unsigned long long allocs = 0;
  unsigned long long frees = 0;
  unsigned long long bytes = 0;  ///< bytes requested across all allocs
};
Totals totals();

/// Accumulated per-region-name statistics. "Disallowed" allocations are
/// those made inside the region outside any EXW_PURITY_ALLOW scope —
/// the quantity the warm-path contract requires to be zero in steady
/// state (and which fatal mode turns into a throw).
struct RegionStats {
  long long entries = 0;            ///< times a region of this name closed
  long long allocs = 0;             ///< disallowed allocations
  unsigned long long bytes = 0;     ///< bytes of disallowed allocations
  long long frees = 0;              ///< frees observed inside the region
  long long allowed_allocs = 0;     ///< allocations under EXW_PURITY_ALLOW
  unsigned long long allowed_bytes = 0;
};

/// Snapshot of one region's accumulated stats ({} if never closed).
RegionStats region(std::string_view name);
/// All region names seen so far (first-closed order).
std::vector<std::string> region_names();

/// Counters of everything the sanitizer looked at (for tests and triage).
struct Report {
  long long regions_entered = 0;   ///< region scopes closed
  long long disallowed_allocs = 0; ///< in-region allocs outside allow scopes
  long long allowed_allocs = 0;    ///< in-region allocs under allow scopes
  long long violations = 0;        ///< fatal-mode throws raised
  Totals process;                  ///< process-wide totals
};
Report report();

/// Reset all counters and the region registry (tests).
void reset();

/// One-line human-readable summary of report().
std::string summary();

/// Fatal mode: non-allowlisted in-region allocations throw exw::Error.
/// Seeded from the EXW_PURITY_FATAL environment variable on first query;
/// set_fatal() overrides it (tests, benches).
bool fatal_mode();
void set_fatal(bool fatal);

#if EXW_PURITY_CHECKS_ENABLED

/// Thread-local RAII purity region. Open one at every warm entry point
/// (via EXW_PURITY_REGION); nested regions each account the activity.
class ScopedPurityRegion {
 public:
  ScopedPurityRegion(const char* name, const char* file, int line);
  ~ScopedPurityRegion();
  ScopedPurityRegion(const ScopedPurityRegion&) = delete;
  ScopedPurityRegion& operator=(const ScopedPurityRegion&) = delete;
};

/// Thread-local RAII allowlist scope: allocations inside it are counted
/// as allowed. The reason string is for the reader (and the lint); it is
/// not stored per-allocation.
class ScopedPurityAllow {
 public:
  explicit ScopedPurityAllow(const char* reason);
  ~ScopedPurityAllow();
  ScopedPurityAllow(const ScopedPurityAllow&) = delete;
  ScopedPurityAllow& operator=(const ScopedPurityAllow&) = delete;
};

/// Innermost open region of the calling thread, for handing to pool
/// workers. `name == nullptr` means no region is open.
struct RegionToken {
  const char* name = nullptr;
  const char* file = nullptr;
  int line = 0;
};
RegionToken capture();

/// Push the captured region onto the calling thread's (empty) stack for
/// the duration of a pool body. No-op when the token is inactive or the
/// thread already carries a region (the inline/nested case).
class ScopedRegionInherit {
 public:
  explicit ScopedRegionInherit(const RegionToken& token);
  ~ScopedRegionInherit();
  ScopedRegionInherit(const ScopedRegionInherit&) = delete;
  ScopedRegionInherit& operator=(const ScopedRegionInherit&) = delete;

 private:
  bool active_;
};

#define EXW_PURITY_CONCAT2(a, b) a##b
#define EXW_PURITY_CONCAT(a, b) EXW_PURITY_CONCAT2(a, b)
/// Open a purity region for the rest of the enclosing scope.
#define EXW_PURITY_REGION(name)                             \
  ::exw::perf::purity::ScopedPurityRegion EXW_PURITY_CONCAT( \
      exw_purity_region_, __LINE__)((name), __FILE__, __LINE__)
/// Allowlist allocations for the rest of the enclosing scope.
#define EXW_PURITY_ALLOW(reason)                           \
  ::exw::perf::purity::ScopedPurityAllow EXW_PURITY_CONCAT( \
      exw_purity_allow_, __LINE__)((reason))

#else  // !EXW_PURITY_CHECKS_ENABLED

#define EXW_PURITY_REGION(name) ((void)0)
#define EXW_PURITY_ALLOW(reason) ((void)0)

#endif  // EXW_PURITY_CHECKS_ENABLED

}  // namespace exw::perf::purity
