// perfbench — the repository benchmark. Runs one named workload over the
// native-flash stack for a given time, checks its outputs, and prints every
// metric by name, unit and clock. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; with --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
//
//   perfbench --workload tpcc-paper --seed 1 --seconds 20 --trace 0
//             [--trace-out FILE]
//   reference-only variations (README figures, never the measured runs):
//             [--measured-scale X] [--placement traditional] [--workers N]
//
// Workloads: tpcc-paper, tpcc-threads, tpcc-housekeeping, page-churn.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "workload.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* clock;
};

// End-to-end metrics, reported on every workload. An "op" is a committed or
// rolled-back TPC-C transaction, or a page request.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s", "wall"},
    {"host_ops_per_s", "1/s", "wall"},
    {"cpu_us_per_op", "us", "cpu"},
    {"sim_ops_per_s", "1/s", "sim"},
    {"resp_p50_ms", "ms", "sim"},
    {"resp_p99_ms", "ms", "sim"},
    {"scan_p50_ms", "ms", "sim"},
    {"flash_read_p99_us", "us", "sim"},
    {"write_amp", "pages/page", "sim"},
    {"peak_rss_mib", "MiB", "host"},
};

// Per-layer metrics, printed by every traced run (0 where a layer does not
// take part in the workload).
const MetricDef kPerLayer[] = {
    {"flash.reads_per_op", "count", "count"},
    {"flash.programs_per_op", "count", "count"},
    {"flash.die_busy_frac_mean", "fraction", "sim"},
    {"flash.die_busy_frac_max", "fraction", "sim"},
    {"flash.read_wait_us", "us", "sim"},
    {"flash.read_host_ns", "ns", "wall"},
    {"ftl.request_host_ns", "ns", "wall"},
    {"ftl.gc_copybacks_per_write", "count", "count"},
    {"ftl.victim_steps_per_pick", "count", "count"},
    {"ftl.emergency_reclaims", "count", "count"},
    {"ftl.throttle_busy", "count", "count"},
    {"shard.request_host_ns", "ns", "wall"},
    {"shard.scatter_per_batch", "count", "count"},
    {"storage.tablespace_read_host_us", "us", "wall"},
    {"storage.heap_read_host_ns", "ns", "wall"},
    {"buffer.hit_rate", "fraction", "count"},
    {"buffer.misses_per_txn", "count", "count"},
    {"buffer.sync_flushes_per_ktxn", "count", "count"},
    {"buffer.fix_hit_host_ns", "ns", "wall"},
    {"buffer.fix_miss_host_us", "us", "wall"},
    {"index.lookup_host_ns", "ns", "wall"},
    {"index.scan_host_us", "us", "wall"},
    {"tpcc.neworder_host_us", "us", "wall"},
    {"tpcc.payment_host_us", "us", "wall"},
    {"tpcc.orderstatus_host_us", "us", "wall"},
    {"tpcc.delivery_host_us", "us", "wall"},
    {"tpcc.stocklevel_host_us", "us", "wall"},
    {"tpcc.worker_busy_frac", "fraction", "cpu"},
    {"tpcc.contended_speedup", "ratio", "wall"},
    {"tpcc.txn_retries", "count", "count"},
    {"sched.bg_pages", "count", "count"},
    {"sched.offpath_frac", "fraction", "count"},
    {"sched.idle_grants", "count", "count"},
    {"sched.busy_skips", "count", "count"},
    {"sched.preemptions", "count", "count"},
    {"sched.bg_erase_deferred", "count", "count"},
    {"mvcc.snapshot_open_ms", "ms", "sim"},
    {"mvcc.versions_retained_per_ktxn", "count", "count"},
    {"mvcc.snapshot_reads", "count", "count"},
    {"trace.overhead_frac", "fraction", "wall"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  Overrides overrides;
};

[[noreturn]] void Usage(const char* why) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload NAME --seed N "
          "--seconds S --trace 0|1 [--trace-out FILE] [--measured-scale X] "
          "[--placement traditional] [--workers N]\n",
          why);
  exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = val == "1";
      if (val != "0" && val != "1") Usage("--trace takes 0 or 1");
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else if (key == "--measured-scale") {
      a.overrides.measured_scale = strtod(val.c_str(), &end);
    } else if (key == "--placement") {
      a.overrides.placement = val;
      if (val != "traditional") Usage("--placement takes traditional");
    } else if (key == "--workers") {
      a.overrides.workers = static_cast<uint32_t>(strtoul(val.c_str(), &end, 10));
      if (a.overrides.workers == 0 || a.overrides.workers > 64) {
        Usage("--workers takes 1..64");
      }
    } else {
      Usage(("unknown argument " + key).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad number for " + key).c_str());
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.seconds <= 0) Usage("--seconds must be positive");
  if (a.overrides.measured_scale <= 0) Usage("--measured-scale must be positive");
  return a;
}

bool IsHostClock(const std::string& clock) {
  return clock == "wall" || clock == "cpu";
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  std::unique_ptr<Workload> wl =
      args.workload == "page-churn"
          ? MakeChurnWorkload(args.seed, args.overrides)
          : MakeTpccWorkload(args.workload, args.seed, args.overrides);
  if (wl == nullptr) Usage(("unknown workload " + args.workload).c_str());

  printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
         args.workload.c_str(), static_cast<unsigned long long>(args.seed),
         args.seconds, args.trace ? 1 : 0);
  wl->PrintConfig();
  fflush(stdout);

  // Whole rounds until the time is spent: at least 3 (4 when traced, so
  // that traced and untraced rounds alternate two each).
  const size_t min_rounds = args.trace ? 4 : 3;
  const double start = WallSeconds();
  std::vector<RoundResult> rounds;
  std::vector<bool> traced;
  Tracer kept;
  bool kept_used = false;
  for (;;) {
    const bool t = args.trace && rounds.size() % 2 == 1;
    Tracer scratch;
    Tracer* tracer = nullptr;
    if (t) tracer = kept_used ? &scratch : &kept;
    if (t) kept_used = true;
    rounds.push_back(wl->RunRound(tracer));
    traced.push_back(t);
    const RoundResult& r = rounds.back();
    printf("round %zu%s: setup %.3f s, %.0f ops/s host, %.1f ops/s sim, "
           "%llu attempted, %llu failed%s\n",
           rounds.size(), t ? " (traced)" : "", r.e2e.Value("setup_s"),
           r.e2e.Value("host_ops_per_s"), r.e2e.Value("sim_ops_per_s"),
           static_cast<unsigned long long>(r.attempted),
           static_cast<unsigned long long>(r.failed),
           r.errors.empty() ? "" : ", CHECK FAILED");
    for (const auto& e : r.errors) printf("  check failed: %s\n", e.c_str());
    fflush(stdout);
    if (!r.errors.empty()) break;
    const double elapsed = WallSeconds() - start;
    const double per_round = elapsed / static_cast<double>(rounds.size());
    if (rounds.size() >= min_rounds && elapsed + per_round > args.seconds) break;
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const RoundResult& r : rounds) {
    correct = correct && r.errors.empty();
    attempted += r.attempted;
    failed += r.failed;
  }

  // End-to-end: host clocks are medians over the untraced rounds; simulated
  // metrics repeat exactly per seed on the deterministic workloads (checked)
  // and are medians over rounds on the threaded one.
  MetricSet e2e;
  for (const MetricDef& def : kEndToEnd) {
    if (std::string(def.name) == "peak_rss_mib") continue;
    std::vector<double> values;
    const Metric* first = rounds[0].e2e.Find(def.name);
    for (size_t i = 0; i < rounds.size(); i++) {
      const Metric* m = rounds[i].e2e.Find(def.name);
      if (m == nullptr) continue;
      if (IsHostClock(def.clock)) {
        if (!traced[i]) values.push_back(m->value);
      } else {
        values.push_back(m->value);
        if (wl->deterministic() && first != nullptr && m->value != first->value) {
          correct = false;
          printf("check failed: %s differs between rounds (%.17g vs %.17g)\n",
                 def.name, m->value, first->value);
        }
      }
    }
    e2e.Set(def.name, def.unit, def.clock, Median(values),
            first != nullptr ? first->samples : 0);
  }
  e2e.Set("peak_rss_mib", "MiB", "host", PeakRssMib());

  printf("\nend-to-end metrics (%zu rounds; host clocks: median over untraced "
         "rounds):\n",
         rounds.size());
  for (const Metric& m : e2e.all()) {
    printf("  %-20s %14.4f %-10s [%s]", m.name.c_str(), m.value,
           m.unit.c_str(), m.clock.c_str());
    if (m.samples > 0) {
      printf(" n=%llu%s", static_cast<unsigned long long>(m.samples),
             m.name == "write_amp" ? " host page writes" : " samples");
    }
    printf("\n");
  }
  printf("operations: %llu attempted, %llu failed\n",
         static_cast<unsigned long long>(attempted),
         static_cast<unsigned long long>(failed));

  MetricSet layer;
  if (args.trace) {
    std::vector<double> plain, with_trace;
    for (size_t i = 0; i < rounds.size(); i++) {
      (traced[i] ? with_trace : plain)
          .push_back(rounds[i].e2e.Value("host_ops_per_s"));
    }
    const double traced_ops = Median(with_trace);
    // Per-layer values: medians over the traced rounds (the only ones that
    // run the ladder).
    for (const MetricDef& def : kPerLayer) {
      std::vector<double> values;
      for (size_t i = 0; i < rounds.size(); i++) {
        const Metric* m = traced[i] ? rounds[i].layer.Find(def.name) : nullptr;
        if (m != nullptr) values.push_back(m->value);
      }
      layer.Set(def.name, def.unit, def.clock, Median(values));
    }
    layer.Set("trace.overhead_frac", "fraction", "wall",
              traced_ops > 0 ? Median(plain) / traced_ops - 1.0 : 0.0);

    printf("\nper-layer table (spans of the first traced round):\n");
    printf("  %-8s %-38s %8s %12s %12s %12s\n", "layer", "call", "count",
           "host p50 us", "host p99 us", "sim p50 us");
    for (const auto& rung : kept.Rungs()) {
      printf("  %-8s %-38s %8llu %12.3f %12.3f %12.1f\n", rung.layer.c_str(),
             rung.name.c_str(), static_cast<unsigned long long>(rung.count),
             rung.host_p50_us, rung.host_p99_us, rung.sim_p50_us);
    }
    printf("\nper-layer metrics:\n");
    for (const Metric& m : layer.all()) {
      printf("  %-34s %14.4f %-9s [%s]\n", m.name.c_str(), m.value,
             m.unit.c_str(), m.clock.c_str());
    }
    printf("tracing overhead: %.2f%% of host ops/s (untraced %.0f vs traced "
           "%.0f, medians)\n",
           100.0 * layer.Value("trace.overhead_frac"), Median(plain),
           traced_ops);
    if (!args.trace_out.empty()) {
      if (kept.WriteChromeTrace(args.trace_out)) {
        printf("trace: %s (%zu spans)\n", args.trace_out.c_str(),
               kept.spans().size());
      } else {
        correct = false;
        printf("check failed: cannot write trace %s\n", args.trace_out.c_str());
      }
    }
  }

  const MetricSet& out = args.trace ? layer : e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.all()) {
    json += first ? "" : ", ";
    first = false;
    json.append("\"").append(JsonEscape(m.name)).append("\": {\"value\": ");
    json.append(JsonNumber(m.value)).append(", \"unit\": \"");
    json.append(JsonEscape(m.unit)).append("\"}");
  }
  json += "}}";
  printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
