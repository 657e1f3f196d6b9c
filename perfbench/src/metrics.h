// Metrics, clocks and spans of the benchmark.
//
// Every metric names its clock:
//   sim  — simulated device time (die/channel busy horizons),
//   wall — host wall time (std::chrono::steady_clock),
//   cpu  — process user+sys time from getrusage,
//   host — a host resource that is not a time (peak resident memory),
//   count — a counter ratio taken from the program's *Stats structs.
// Spans are recorded only from the benchmark's own calls into a layer's
// public functions; nothing inside the program is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.h"

namespace perfbench {

/// Host wall-clock seconds since an arbitrary epoch.
double WallSeconds();
/// Process user+sys CPU seconds (all threads).
double CpuSeconds();
/// Peak resident set size of this process, MiB.
double PeakRssMib();

/// One named metric value.
struct Metric {
  std::string name;
  std::string unit;
  std::string clock;
  double value = 0;
  /// Sample count behind a percentile (0 = not a percentile).
  uint64_t samples = 0;
};

/// Ordered metric list; names are unique (Set replaces).
class MetricSet {
 public:
  void Set(const std::string& name, const std::string& unit,
           const std::string& clock, double value, uint64_t samples = 0);
  const Metric* Find(const std::string& name) const;
  double Value(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// num / den, or 0 when den is 0 (a layer that did no work).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median of a non-empty sample (0 for an empty one).
double Median(std::vector<double> v);
/// Nearest-rank percentile (p in [0,100]) of a sample (0 for an empty one).
double Percentile(std::vector<double> v, double p);

/// A span around one call into a layer's public function: host and
/// simulated start/end.
struct Span {
  const char* layer = "";  ///< static string: flash, ftl, shard, ...
  const char* name = "";   ///< static string: the called function
  uint64_t host_start_ns = 0;
  uint64_t host_end_ns = 0;
  noftl::SimTime sim_start = 0;
  noftl::SimTime sim_end = 0;
};

/// In-memory span recorder; written out once the run ends.
class Tracer {
 public:
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, host clock on the time
  /// axis, simulated start/end in args). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

  /// Rows of the per-layer table: one per (layer, name).
  struct Rung {
    std::string layer;
    std::string name;
    uint64_t count = 0;
    double host_p50_us = 0;
    double host_p99_us = 0;
    double sim_p50_us = 0;
  };
  /// Rungs in first-seen order.
  std::vector<Rung> Rungs() const;

 private:
  std::vector<Span> spans_;
};

/// Times a call as a span: construct before, call Done(sim_start, sim_end)
/// after; Done returns the host nanoseconds for per-layer medians. A null
/// tracer times without recording.
class SpanTimer {
 public:
  SpanTimer(Tracer* tracer, const char* layer, const char* name)
      : tracer_(tracer), layer_(layer), name_(name), start_(Tracer::NowNs()) {}
  /// Host nanoseconds of the call.
  uint64_t Done(noftl::SimTime sim_start, noftl::SimTime sim_end) {
    const uint64_t end = Tracer::NowNs();
    if (tracer_ != nullptr) {
      tracer_->Add(Span{layer_, name_, start_, end, sim_start, sim_end});
    }
    return end - start_;
  }

 private:
  Tracer* tracer_;
  const char* layer_;
  const char* name_;
  uint64_t start_;
};

/// Minimal JSON string escaping.
std::string JsonEscape(const std::string& s);
/// A double printed with all its significant digits.
std::string JsonNumber(double v);

}  // namespace perfbench
