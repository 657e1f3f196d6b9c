// A workload runs in rounds. Every round builds the stack from scratch, sets
// it up (load or populate), runs a fixed amount of work and checks the
// outputs, so every round of a run attempts the same operations. The runner
// (main.cc) repeats rounds until the run's time is spent and reports host
// metrics as medians over rounds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

struct RoundResult {
  /// End-to-end values of this round (names as in BENCHMARK.json; the
  /// runner adds peak_rss_mib).
  MetricSet e2e;
  /// Per-layer values of this round (counters always; ladder timings only
  /// in a traced round).
  MetricSet layer;
  uint64_t attempted = 0;  ///< committed + rolled-back txns, or page requests
  uint64_t failed = 0;     ///< give-ups, non-transient errors, error statuses
  std::vector<std::string> errors;  ///< correctness failures
};

/// A round that could not run to its end: the error is a correctness
/// failure and counts as one failed operation.
inline RoundResult FailRound(RoundResult r, const std::string& what) {
  r.errors.push_back(what);
  r.failed += 1;
  if (r.attempted < r.failed) r.attempted = r.failed;
  return r;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Print the self-describing config block (geometry, placement, pool,
  /// driver, data size relative to pool and device).
  virtual void PrintConfig() const = 0;
  /// True when the simulated-clock metrics repeat exactly for one seed.
  virtual bool deterministic() const = 0;
  /// One round. `tracer` is null in an untraced round; a traced round also
  /// runs the per-layer ladder after the measured phase.
  virtual RoundResult RunRound(Tracer* tracer) = 0;
};

/// Reference-only variations of a workload (README figures; never used by
/// the measured runs).
struct Overrides {
  /// Multiplies the length of the measured phase only (the device stays
  /// sized for the unscaled run), so runs at 0.5 and 1.0 share their first
  /// half exactly on the deterministic workloads.
  double measured_scale = 1.0;
  /// TPC-C: "traditional" puts every object in one region over all dies.
  std::string placement;
  /// tpcc-threads: worker threads (0 = the workload's own count).
  uint32_t workers = 0;
};

/// tpcc-paper, tpcc-threads, tpcc-housekeeping; null for another name.
std::unique_ptr<Workload> MakeTpccWorkload(const std::string& name,
                                           uint64_t seed,
                                           const Overrides& overrides);
/// page-churn.
std::unique_ptr<Workload> MakeChurnWorkload(uint64_t seed,
                                            const Overrides& overrides);

}  // namespace perfbench
