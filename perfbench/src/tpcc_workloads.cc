// The three TPC-C workloads: tpcc-paper (the Figure-3 setup), tpcc-threads
// (unpaced real threads over 4 warehouse shards) and tpcc-housekeeping
// (background scheduler + MVCC snapshot Stock-Level under think time).
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "shard/sharded_space.h"
#include "tpcc/driver.h"
#include "tpcc/placement.h"
#include "tpcc/schema.h"
#include "tpcc/tpcc_db.h"
#include "tpcc/transactions.h"
#include "workload.h"

namespace perfbench {

namespace {

using noftl::SimTime;
using noftl::Status;
namespace tp = noftl::tpcc;
namespace shard = noftl::shard;

enum class Placement { kFigure2Derived, kTraditional };

struct TpccConfig {
  std::string name;
  tp::TpccScale scale;
  uint32_t shards = 1;
  uint32_t dies = 64;  ///< per shard
  uint32_t channels = 16;
  uint32_t planes = 2;
  Placement placement = Placement::kFigure2Derived;
  uint32_t frames = 1024;
  uint32_t flush_batch = 16;
  double flush_high_water = 0.20;
  double utilization = 0.80;
  uint32_t terminals = 8;
  uint32_t workers = 0;  ///< 0 = deterministic event-ordered driver
  /// Traced rounds only: one more run of the same round at this many
  /// workers, for the per-layer contention figures (0 = none).
  uint32_t contended_workers = 0;
  SimTime think_us = 0;
  uint64_t warmup = 0;
  uint64_t txns = 0;
  bool scheduler = false;
  bool snapshot_stocklevel = false;
  /// Drop every page from the pool after the load, so the measured phase
  /// reads the data set in from flash once.
  bool cold_pool = false;
};

TpccConfig ConfigFor(const std::string& name) {
  TpccConfig c;
  c.name = name;
  if (name == "tpcc-paper") {
    // Figure 3: 64 dies / 16 channels, 1 warehouse, derived Figure-2
    // regions, 8 terminals, 1024 frames (hit rate ~0.80), batched I/O, an
    // unmeasured warm-up as long as the measured phase.
    c.scale.warehouses = 1;
    c.warmup = 6000;
    c.txns = 6000;
  } else if (name == "tpcc-threads") {
    // bench_threads' shape: 8 warehouses over 4 shards placed by warehouse,
    // one terminal per warehouse, unpaced; the pool holds the whole data set.
    // The measured rounds use one worker thread: with 2-4 unpaced workers
    // host throughput swung 2.2k-7.5k txn/s between rounds on a 4-vCPU VM
    // (workers blocked 64-84% of the time), wider than any regression bound. The contended
    // figures come from an extra round of every traced run.
    c.scale.warehouses = 8;
    c.scale.items = 10000;
    c.scale.customers_per_district = 600;
    c.scale.initial_orders_per_district = 300;
    c.scale.initial_new_orders_per_district = 90;
    c.shards = 4;
    c.dies = 8;
    c.channels = 8;
    c.planes = 1;
    c.placement = Placement::kTraditional;
    c.frames = 32768;
    c.workers = 1;
    const uint32_t cores = std::thread::hardware_concurrency();
    c.contended_workers = cores >= 2 ? std::min(4u, cores) : 0;
    c.txns = 8000;
    c.cold_pool = true;
  } else if (name == "tpcc-housekeeping") {
    // bench_background's scheduler run plus bench_mvcc's snapshot scans:
    // 88% device utilization, 30 ms think time, background scheduler on.
    c.scale.warehouses = 1;
    c.dies = 16;
    c.channels = 8;
    c.placement = Placement::kTraditional;
    c.utilization = 0.88;
    c.terminals = 4;
    c.think_us = 30000;
    c.warmup = 3000;
    c.txns = 24000;
    c.scheduler = true;
    c.snapshot_stocklevel = true;
  } else {
    c.name.clear();
  }
  return c;
}

/// Counter totals over every mapper of the stack.
struct MapperTotals {
  uint64_t host_writes = 0, gc_copybacks = 0, victim_picks = 0,
           victim_steps = 0, emergency = 0, throttle_busy = 0, bg_gc_pages = 0,
           versions_retained = 0, snapshot_reads = 0;
};

MapperTotals CollectMappers(tp::TpccDb* db) {
  MapperTotals t;
  ForEachRegion(db->database(), [&](noftl::region::Region* rg) {
    const auto& s = rg->stats();
    t.host_writes += s.host_writes;
    t.gc_copybacks += s.gc_copybacks;
    t.victim_picks += s.victim_picks;
    t.victim_steps += s.victim_scan_steps;
    t.emergency += s.emergency_reclaims;
    t.throttle_busy += s.throttle_busy;
    t.bg_gc_pages += s.bg_gc_pages;
    t.versions_retained += s.versions_retained;
    t.snapshot_reads += s.snapshot_reads;
  });
  return t;
}

/// Accumulated busy time of every die of every device, and the latest die
/// horizon.
struct DieTimes {
  std::vector<SimTime> busy;
  SimTime horizon = 0;
};

DieTimes CollectDies(tp::TpccDb* db) {
  DieTimes t;
  db->database()->ForEachDevice([&](noftl::flash::FlashDevice* dev) {
    for (uint32_t die = 0; die < dev->geometry().total_dies(); die++) {
      t.busy.push_back(dev->DieBusyTime(die));
      t.horizon = std::max(t.horizon, dev->DieBusyUntil(die));
    }
  });
  return t;
}

/// Requests and batches through every sharded space of the stack.
std::pair<uint64_t, uint64_t> CollectScatter(tp::TpccDb* db,
                                             const tp::PlacementConfig& p) {
  uint64_t requests = 0, batches = 0;
  if (!db->database()->sharded()) return {0, 0};
  for (const auto& spec : p.regions) {
    shard::ShardedSpace* sp = db->database()->shards()->space(spec.region_name);
    if (sp == nullptr) continue;
    requests += sp->stats().scatter_requests;
    batches += sp->stats().merged_batches + sp->stats().passthrough_batches;
  }
  return {requests, batches};
}

class TpccWorkload : public Workload {
 public:
  TpccWorkload(const TpccConfig& config, uint64_t seed, double measured_scale)
      : cfg_(config), seed_(seed) {
    noftl::db::DatabaseOptions& o = db_options_.db;
    o.geometry.channels = cfg_.channels;
    o.geometry.dies_per_channel = cfg_.dies / cfg_.channels;
    o.geometry.planes_per_die = cfg_.planes;
    o.geometry.pages_per_block = 64;
    o.geometry.page_size = 4096;
    const uint64_t expected_new_orders = (cfg_.warmup + cfg_.txns) * 45 / 100;
    uint32_t blocks = tp::SuggestBlocksPerDie(
        cfg_.scale, o.geometry.page_size, expected_new_orders, cfg_.dies,
        o.geometry.pages_per_block, cfg_.utilization);
    o.geometry.blocks_per_die = (blocks + cfg_.planes - 1) / cfg_.planes *
                                cfg_.planes;
    o.buffer.frame_count = cfg_.frames;
    o.buffer.flush_batch = cfg_.flush_batch;
    o.buffer.flush_high_water = cfg_.flush_high_water;
    if (cfg_.shards > 1) {
      o.sharding.shard_count = cfg_.shards;
      o.sharding.placement = shard::ShardPlacement::kByKey;
    }
    if (cfg_.scheduler) {
      o.scheduler.enabled = true;
      o.scheduler.batch_pages = 4;
      o.scheduler.quanta_per_tick = 1;
    }
    db_options_.scale = cfg_.scale;
    db_options_.seed = seed_;
    db_options_.placement =
        cfg_.placement == Placement::kFigure2Derived
            ? tp::DeriveFigure2Placement(
                  cfg_.scale, o.geometry.page_size, expected_new_orders,
                  cfg_.dies,
                  tp::UsablePagesPerDie(o.geometry.blocks_per_die,
                                        o.geometry.pages_per_block))
            : tp::TraditionalPlacement(cfg_.dies);

    driver_.terminals = cfg_.terminals;
    driver_.max_transactions = static_cast<uint64_t>(
        static_cast<double>(cfg_.txns) * measured_scale);
    driver_.warmup_transactions = cfg_.warmup;
    driver_.seed = seed_ + 1;
    driver_.batched_io = true;
    driver_.think_time_us = cfg_.think_us;
    driver_.worker_threads = cfg_.workers;
    driver_.per_terminal_streams = cfg_.workers > 0;
    driver_.wall_pace = 0;
    driver_.snapshot_stocklevel = cfg_.snapshot_stocklevel;
  }

  // One worker runs the terminals in a fixed order, as the event-ordered
  // driver does; only several workers make the interleaving vary.
  bool deterministic() const override { return cfg_.workers <= 1; }

  void PrintConfig() const override {
    const auto& g = db_options_.db.geometry;
    const auto& s = cfg_.scale;
    printf("config:\n");
    printf("  geometry          %u shard(s) x [%s]\n", cfg_.shards,
           g.ToString().c_str());
    printf("  blocks_per_die    %u (utilization target %.2f)\n",
           g.blocks_per_die, cfg_.utilization);
    printf("  overprovisioning  %.1f%% (usable %llu of %llu pages per die)\n",
           100.0 * (1.0 - static_cast<double>(tp::UsablePagesPerDie(
                              g.blocks_per_die, g.pages_per_block)) /
                              static_cast<double>(g.pages_per_die())),
           static_cast<unsigned long long>(
               tp::UsablePagesPerDie(g.blocks_per_die, g.pages_per_block)),
           static_cast<unsigned long long>(g.pages_per_die()));
    printf("  shards            %u (%s)\n", cfg_.shards,
           cfg_.shards > 1 ? "placed by warehouse" : "unsharded");
    printf("  placement         %s:", db_options_.placement.label.c_str());
    for (const auto& r : db_options_.placement.regions) {
      printf(" %s=%u", r.region_name.c_str(), r.dies);
    }
    printf("\n");
    printf("  pool              %u frames (%.1f MiB), flush batch %u, high "
           "water %.2f%s\n",
           cfg_.frames, cfg_.frames * 4096.0 / (1 << 20), cfg_.flush_batch,
           cfg_.flush_high_water, cfg_.cold_pool ? ", cold after load" : "");
    printf("  scale             %u warehouse(s), %u items, %u customers/"
           "district, %u orders/district\n",
           s.warehouses, s.items, s.customers_per_district,
           s.initial_orders_per_district);
    printf("  driver            %s, %u terminals, think %llu us, warm-up %llu "
           "+ measured %llu txns, batched I/O, pace 0\n",
           cfg_.workers == 0
               ? "deterministic"
               : ("threaded, " + std::to_string(cfg_.workers) + " workers")
                     .c_str(),
           cfg_.terminals, static_cast<unsigned long long>(cfg_.think_us),
           static_cast<unsigned long long>(cfg_.warmup),
           static_cast<unsigned long long>(driver_.max_transactions));
    if (cfg_.contended_workers > 0) {
      printf("  contention        traced runs add one round at %u workers\n",
             cfg_.contended_workers);
    }
    printf("  scheduler         %s; snapshot Stock-Level %s\n",
           cfg_.scheduler ? "on" : "off",
           cfg_.snapshot_stocklevel ? "on" : "off");
    printf("  seed              load %llu, driver %llu\n",
           static_cast<unsigned long long>(seed_),
           static_cast<unsigned long long>(seed_ + 1));
    const double device_pages = static_cast<double>(g.total_pages()) *
                                cfg_.shards;
    const double data_pages = static_cast<double>(EstimatedDataPages());
    printf("  data size         ~%.0f pages estimated with growth = %.2fx pool, "
           "%.2f of device\n",
           data_pages, data_pages / cfg_.frames, data_pages / device_pages);
  }

  RoundResult RunRound(Tracer* tracer) override {
    RoundResult r;
    if (deterministic() && cfg_.warmup > 0 && !census_done_) RunCensus(&r);

    const double t0 = WallSeconds();
    auto loaded = tp::TpccDb::CreateAndLoad(db_options_);
    if (!loaded.ok()) return FailRound(std::move(r), "load: " + loaded.status().ToString());
    std::unique_ptr<tp::TpccDb> db = std::move(*loaded);
    if (cfg_.cold_pool) {
      Status s = DropPool(db.get());
      if (!s.ok()) return FailRound(std::move(r), "cold pool: " + s.ToString());
    }
    r.e2e.Set("setup_s", "s", "wall", WallSeconds() - t0);

    const MapperTotals m0 = CollectMappers(db.get());
    const DieTimes d0 = CollectDies(db.get());
    const auto scatter0 = CollectScatter(db.get(), db_options_.placement);
    const uint64_t deferred0 =
        db->database()->SchedulerStatsTotal().bg_erase_deferred;
    const SimTime sim0 = db->load_end_time();

    tp::TpccDriver driver(db.get(), driver_);
    const double c0 = CpuSeconds(), w0 = WallSeconds();
    auto rep = driver.Run();
    const double w1 = WallSeconds(), c1 = CpuSeconds();
    if (!rep.ok()) return FailRound(std::move(r), "driver: " + rep.status().ToString());
    const tp::DriverReport& report = *rep;

    const uint64_t measured =
        report.transactions + report.rollbacks;  // give-ups are rollbacks
    const uint64_t warm_ops =
        cfg_.workers == 0 ? cfg_.warmup : 0;  // threaded warm-up is 0 here
    const uint64_t run_ops = warm_ops + measured;
    r.attempted = run_ops;
    r.failed = report.txn_giveups + census_giveups_;

    // Host clocks: the whole driver run (warm-up included — the driver
    // does not expose the boundary; both phases run the same code).
    r.e2e.Set("host_ops_per_s", "1/s", "wall", Ratio(run_ops, w1 - w0));
    r.e2e.Set("cpu_us_per_op", "us", "cpu", Ratio((c1 - c0) * 1e6, run_ops));

    // Simulated clock: the measured phase.
    const auto& no = report.response_us[static_cast<int>(tp::TxnType::kNewOrder)];
    const auto& sl =
        report.response_us[static_cast<int>(tp::TxnType::kStockLevel)];
    noftl::Histogram reads;
    uint64_t host_reads = 0, programs = 0;
    db->database()->ForEachDevice([&](noftl::flash::FlashDevice* dev) {
      reads.Merge(dev->HostReadLatency());
      host_reads += dev->stats().host_reads();
      programs += dev->stats().total_programs();
    });
    r.e2e.Set("sim_ops_per_s", "1/s", "sim",
              Ratio(measured, report.elapsed_us / 1e6));
    r.e2e.Set("resp_p50_ms", "ms", "sim", no.P50() / 1000.0, no.count());
    r.e2e.Set("resp_p99_ms", "ms", "sim", no.P99() / 1000.0, no.count());
    r.e2e.Set("scan_p50_ms", "ms", "sim", sl.P50() / 1000.0, sl.count());
    r.e2e.Set("flash_read_p99_us", "us", "sim", reads.P99(), reads.count());
    r.e2e.Set("write_amp", "pages/page", "sim", report.write_amplification,
              report.host_write_ios);

    // Per-layer counters.
    const MapperTotals m1 = CollectMappers(db.get());
    const DieTimes d1 = CollectDies(db.get());
    const auto scatter1 = CollectScatter(db.get(), db_options_.placement);
    const double span = static_cast<double>(std::max(d1.horizon, sim0 + 1) - sim0);
    double busy_sum = 0, busy_max = 0;
    for (size_t i = 0; i < d1.busy.size(); i++) {
      const double f = static_cast<double>(d1.busy[i] - d0.busy[i]) / span;
      busy_sum += f;
      busy_max = std::max(busy_max, f);
    }
    const auto& timing = db_options_.db.timing;
    const auto& bstats = db->database()->buffer()->stats();
    MetricSet& L = r.layer;
    L.Set("flash.reads_per_op", "count", "count", Ratio(host_reads, measured));
    L.Set("flash.programs_per_op", "count", "count", Ratio(programs, measured));
    L.Set("flash.die_busy_frac_mean", "fraction", "sim",
          Ratio(busy_sum, static_cast<double>(d1.busy.size())));
    L.Set("flash.die_busy_frac_max", "fraction", "sim", busy_max);
    L.Set("flash.read_wait_us", "us", "sim",
          reads.count() ? std::max(0.0, reads.Mean() - static_cast<double>(
                                                           timing.read_us +
                                                           timing.transfer_us))
                        : 0.0);
    L.Set("ftl.gc_copybacks_per_write", "count", "count",
          Ratio(m1.gc_copybacks - m0.gc_copybacks, m1.host_writes - m0.host_writes));
    L.Set("ftl.victim_steps_per_pick", "count", "count",
          Ratio(m1.victim_steps - m0.victim_steps, m1.victim_picks - m0.victim_picks));
    L.Set("ftl.emergency_reclaims", "count", "count", m1.emergency - m0.emergency);
    L.Set("ftl.throttle_busy", "count", "count", m1.throttle_busy - m0.throttle_busy);
    L.Set("shard.scatter_per_batch", "count", "count",
          Ratio(scatter1.first - scatter0.first, scatter1.second - scatter0.second));
    L.Set("buffer.hit_rate", "fraction", "count", report.buffer_hit_rate);
    L.Set("buffer.misses_per_txn", "count", "count",
          Ratio(bstats.misses, measured));
    L.Set("buffer.sync_flushes_per_ktxn", "count", "count",
          Ratio(1000.0 * bstats.sync_flushes, measured));
    L.Set("tpcc.worker_busy_frac", "fraction", "cpu",
          Ratio(c1 - c0, (w1 - w0) * std::max(1u, cfg_.workers)));
    L.Set("tpcc.txn_retries", "count", "count", report.txn_retries);
    L.Set("sched.bg_pages", "count", "count", report.sched_bg_pages);
    L.Set("sched.offpath_frac", "fraction", "count",
          Ratio(m1.bg_gc_pages - m0.bg_gc_pages, m1.gc_copybacks - m0.gc_copybacks));
    L.Set("sched.idle_grants", "count", "count", report.sched_idle_grants);
    L.Set("sched.busy_skips", "count", "count", report.sched_busy_skips);
    L.Set("sched.preemptions", "count", "count", report.sched_preemptions);
    L.Set("sched.bg_erase_deferred", "count", "count",
          db->database()->SchedulerStatsTotal().bg_erase_deferred - deferred0);
    L.Set("mvcc.versions_retained_per_ktxn", "count", "count",
          Ratio(1000.0 * (m1.versions_retained - m0.versions_retained), run_ops));
    L.Set("mvcc.snapshot_reads", "count", "count",
          m1.snapshot_reads - m0.snapshot_reads);

    // Correctness, computed by scanning the tables.
    CommittedCounts committed = census_;
    committed += CommittedOf(report);
    const SimTime now = std::max(d1.horizon, sim0 + report.elapsed_us);
    CheckResult check = CheckTpcc(db.get(), committed, now);
    for (auto& f : check.failures) r.errors.push_back(std::move(f));
    for (auto& e : CheckStack(db->database())) r.errors.push_back(std::move(e));

    if (tracer != nullptr) {
      Ladder(db.get(), tracer, now, &r);
      if (cfg_.contended_workers > 1) {
        ContendedRound(r.e2e.Value("host_ops_per_s"), &r);
      }
    }
    return r;
  }

 private:
  /// The same round at cfg_.contended_workers workers: how much of their
  /// time the workers spend running, and their throughput relative to the
  /// one-worker round. Its outputs are checked like any round's.
  void ContendedRound(double one_worker_ops_per_s, RoundResult* r) {
    auto loaded = tp::TpccDb::CreateAndLoad(db_options_);
    if (!loaded.ok()) {
      r->errors.push_back("contended load: " + loaded.status().ToString());
      return;
    }
    tp::TpccDb* db = loaded->get();
    Status s = DropPool(db);
    if (!s.ok()) {
      r->errors.push_back("contended cold pool: " + s.ToString());
      return;
    }
    tp::DriverOptions opt = driver_;
    opt.worker_threads = cfg_.contended_workers;
    const double c0 = CpuSeconds(), w0 = WallSeconds();
    auto rep = tp::TpccDriver(db, opt).Run();
    const double w1 = WallSeconds(), c1 = CpuSeconds();
    if (!rep.ok()) {
      r->errors.push_back("contended driver: " + rep.status().ToString());
      return;
    }
    const uint64_t ops = rep->transactions + rep->rollbacks;
    r->attempted += ops;
    r->failed += rep->txn_giveups;
    r->layer.Set("tpcc.worker_busy_frac", "fraction", "cpu",
                 Ratio(c1 - c0, (w1 - w0) * cfg_.contended_workers));
    r->layer.Set("tpcc.contended_speedup", "ratio", "wall",
                 Ratio(Ratio(ops, w1 - w0), one_worker_ops_per_s));
    const SimTime now = CollectDies(db).horizon;
    for (auto& f : CheckTpcc(db, CommittedOf(*rep), now).failures) {
      r->errors.push_back("contended round: " + f);
    }
    for (auto& e : CheckStack(db->database())) r->errors.push_back(std::move(e));
  }

  uint64_t EstimatedDataPages() const {
    uint64_t pages = 0;
    const uint64_t expected_new_orders = (cfg_.warmup + cfg_.txns) * 45 / 100;
    for (const auto& f : tp::EstimateFootprints(cfg_.scale, 4096,
                                                expected_new_orders)) {
      pages += f.pages;
    }
    return pages;
  }

  /// The committed work of the unmeasured warm-up. The deterministic driver
  /// executes the same first `warmup` transactions whatever the measured
  /// length, so a run of exactly `warmup` measured transactions on the same
  /// seed reports them.
  void RunCensus(RoundResult* r) {
    census_done_ = true;
    auto loaded = tp::TpccDb::CreateAndLoad(db_options_);
    if (!loaded.ok()) {
      r->errors.push_back("census load: " + loaded.status().ToString());
      return;
    }
    tp::DriverOptions opt = driver_;
    opt.warmup_transactions = 0;
    opt.max_transactions = cfg_.warmup;
    auto rep = tp::TpccDriver(loaded->get(), opt).Run();
    if (!rep.ok()) {
      r->errors.push_back("census driver: " + rep.status().ToString());
      return;
    }
    census_ = CommittedOf(*rep);
    census_giveups_ = rep->txn_giveups;
  }

  /// Flush, then drop every page of every tablespace from the pool.
  Status DropPool(tp::TpccDb* db) {
    noftl::db::Database* d = db->database();
    noftl::txn::TxnContext ctx;
    ctx.Begin(db->load_end_time());
    NOFTL_RETURN_IF_ERROR(d->buffer()->FlushAll(&ctx));
    for (const auto& spec : db_options_.placement.regions) {
      noftl::storage::Tablespace* ts = d->GetTablespace("ts_" + spec.region_name);
      if (ts == nullptr) continue;
      for (uint64_t p = 0; p < ts->page_count(); p++) {
        d->buffer()->Discard(noftl::buffer::PageKey{ts->tablespace_id(), p, 0});
      }
    }
    return Status::OK();
  }

  /// Sampled calls down the stack on the loaded database, each one a span:
  /// TPC-C transactions, B-tree lookup/scan, heap read, pool hit and miss,
  /// tablespace read, region and sharded submissions, device page read.
  void Ladder(tp::TpccDb* db, Tracer* tracer, SimTime now, RoundResult* r) {
    using noftl::storage::IoBatch;
    using noftl::storage::IoTicket;
    noftl::db::Database* d = db->database();
    noftl::buffer::BufferPool* pool = d->buffer();
    noftl::txn::TxnContext ctx;
    ctx.Begin(now);
    // Read-only ITEM pages are clean after this, so dropping one from the
    // pool forces a miss without losing an update.
    Status fs = pool->FlushAll(&ctx);
    if (!fs.ok()) r->errors.push_back("ladder flush: " + fs.ToString());

    noftl::Rng rng(seed_ * 7919 + 17);
    noftl::NURand nurand(&rng, *db->nurand());
    tp::TpccTransactions txns(db, &rng, &nurand);
    const auto& s = cfg_.scale;

    // Mapped logical pages of the region holding ITEM, for the provider,
    // region and device rungs.
    const std::string item_region = db_options_.placement.RegionOf("ITEM");
    struct Target {
      noftl::region::Region* region;
      noftl::flash::FlashDevice* device;
      shard::ShardedSpace* sharded;
      size_t shard;
      uint64_t local;
    };
    std::vector<Target> targets;
    for (size_t sh = 0; sh < d->shard_count(); sh++) {
      noftl::region::Region* rg =
          d->sharded() ? d->shards()->region(sh, item_region)
                       : d->regions()->Get(item_region);
      if (rg == nullptr) continue;
      shard::ShardedSpace* sp =
          d->sharded() ? d->shards()->space(item_region) : nullptr;
      noftl::flash::FlashDevice* dev =
          d->sharded() ? d->shards()->device(sh) : d->device();
      for (uint64_t l = 0; l < rg->logical_pages() && targets.size() < 64 * (sh + 1);
           l++) {
        if (rg->IsMapped(l)) targets.push_back(Target{rg, dev, sp, sh, l});
      }
    }

    enum {
      kNewOrder, kPayment, kOrderStatus, kDelivery, kStockLevel, kLookup,
      kScan, kHeapRead, kFixHit, kFixMiss, kTsRead, kRegion, kShard, kDevice,
      kSnapOpenSim, kRungs
    };
    std::vector<double> host[kRungs];  // host µs or ns per rung; sim ms for
                                       // kSnapOpenSim
    auto check = [&](const Status& st, const char* what) {
      if (!st.ok()) r->errors.push_back(std::string("ladder ") + what + ": " + st.ToString());
      return st.ok();
    };
    std::vector<char> buf(4096);
    constexpr int kSamples = 40;
    for (int i = 0; i < kSamples; i++) {
      const auto w = static_cast<int32_t>(1 + rng.Below(s.warehouses));
      const auto dd = static_cast<int32_t>(1 + rng.Below(s.districts_per_warehouse));
      const auto c = static_cast<int32_t>(1 + rng.Below(s.customers_per_district));
      const auto item = static_cast<int32_t>(1 + rng.Below(s.items));

      // tpcc: one transaction of each type.
      for (int ty = 0; ty < tp::kNumTxnTypes; ty++) {
        const auto type = static_cast<tp::TxnType>(ty);
        ctx.Begin(ctx.now);
        const SimTime s0 = ctx.now;
        SpanTimer t(tracer, "tpcc", tp::TxnTypeName(type));
        bool committed = true;
        Status st;
        switch (type) {
          case tp::TxnType::kNewOrder: st = txns.NewOrder(&ctx, w, &committed); break;
          case tp::TxnType::kPayment: st = txns.Payment(&ctx, w); break;
          case tp::TxnType::kOrderStatus: st = txns.OrderStatus(&ctx, w); break;
          case tp::TxnType::kDelivery: st = txns.Delivery(&ctx, w); break;
          case tp::TxnType::kStockLevel: st = txns.StockLevel(&ctx, w, dd); break;
        }
        host[ty].push_back(t.Done(s0, ctx.now) / 1e3);
        check(st, tp::TxnTypeName(type));
      }

      // index: point lookup and a 20-order range scan.
      SimTime s0 = ctx.now;
      SpanTimer tl(tracer, "index", "BTree::Lookup");
      auto packed = db->c_idx->Lookup(&ctx, tp::CustomerKey(w, dd, c));
      host[kLookup].push_back(static_cast<double>(tl.Done(s0, ctx.now)));
      if (!check(packed.status(), "BTree::Lookup")) continue;
      const int32_t o_hi = static_cast<int32_t>(s.initial_orders_per_district);
      s0 = ctx.now;
      uint64_t entries = 0;
      SpanTimer ts(tracer, "index", "BTree::ScanRange");
      Status st = db->ol_idx->ScanRange(
          &ctx, tp::OrderLineKey(w, dd, o_hi - 19, 0),
          tp::OrderLineKey(w, dd, o_hi, 15), [&](noftl::index::Key128, uint64_t) {
            entries++;
            return true;
          });
      host[kScan].push_back(ts.Done(s0, ctx.now) / 1e3);
      check(st, "BTree::ScanRange");

      // storage: heap row read (makes the page resident).
      const auto rid = noftl::storage::RecordId::Unpack(*packed);
      s0 = ctx.now;
      SpanTimer th(tracer, "storage", "HeapFile::Read");
      auto row = db->customer->Read(&ctx, rid);
      host[kHeapRead].push_back(static_cast<double>(th.Done(s0, ctx.now)));
      check(row.status(), "HeapFile::Read");

      // buffer: a hit on that page, then a forced miss on an ITEM page.
      const noftl::buffer::PageKey hit_key{
          db->customer->tablespace()->tablespace_id(), rid.page_no, 0};
      s0 = ctx.now;
      SpanTimer tfh(tracer, "buffer", "BufferPool::FixPage(hit)");
      auto h = pool->FixPage(&ctx, hit_key, false);
      host[kFixHit].push_back(static_cast<double>(tfh.Done(s0, ctx.now)));
      if (check(h.status(), "FixPage(hit)")) pool->Unfix(*h, false);

      auto item_rid = db->i_idx->Lookup(&ctx, tp::ItemKey(item));
      if (!check(item_rid.status(), "item lookup")) continue;
      noftl::storage::Tablespace* item_ts = db->item->tablespace();
      const uint64_t item_page = noftl::storage::RecordId::Unpack(*item_rid).page_no;
      const noftl::buffer::PageKey miss_key{item_ts->tablespace_id(), item_page, 0};
      pool->Discard(miss_key);
      s0 = ctx.now;
      SpanTimer tfm(tracer, "buffer", "BufferPool::FixPage(miss)");
      auto m = pool->FixPage(&ctx, miss_key, false);
      host[kFixMiss].push_back(tfm.Done(s0, ctx.now) / 1e3);
      if (check(m.status(), "FixPage(miss)")) pool->Unfix(*m, false);

      // storage: the tablespace read under the miss.
      SimTime complete = 0;
      s0 = ctx.now;
      SpanTimer tt(tracer, "storage", "Tablespace::ReadPageRaw");
      st = item_ts->ReadPageRaw(item_page, s0, buf.data(), &complete);
      host[kTsRead].push_back(tt.Done(s0, complete) / 1e3);
      if (check(st, "Tablespace::ReadPageRaw")) ctx.AdvanceTo(complete);

      if (targets.empty()) continue;
      const Target& tg = targets[rng.Below(targets.size())];
      // shard: one-read batch through the sharded space (sharded only).
      if (tg.sharded != nullptr) {
        IoBatch b;
        b.AddRead(shard::ShardedSpace::Encode(tg.shard, tg.local), buf.data());
        IoTicket ticket = 0;
        s0 = ctx.now;
        SpanTimer tsh(tracer, "shard", "ShardedSpace::SubmitBatch+WaitBatch");
        st = tg.sharded->SubmitBatch(&b, s0, &ticket);
        if (st.ok()) st = tg.sharded->WaitBatch(ticket, &complete);
        if (st.ok()) st = b.FirstError();
        host[kShard].push_back(static_cast<double>(tsh.Done(s0, complete)));
        if (check(st, "ShardedSpace batch")) ctx.AdvanceTo(complete);
      }
      // ftl: one-read batch through the region (its mapper).
      {
        IoBatch b;
        b.AddRead(tg.local, buf.data());
        IoTicket ticket = 0;
        s0 = ctx.now;
        SpanTimer tr(tracer, "ftl", "Region::SubmitBatch+WaitBatch");
        st = tg.region->SubmitBatch(&b, s0, &ticket);
        if (st.ok()) st = tg.region->WaitBatch(ticket, &complete);
        if (st.ok()) st = b.FirstError();
        host[kRegion].push_back(static_cast<double>(tr.Done(s0, complete)));
        if (check(st, "Region batch")) ctx.AdvanceTo(complete);
      }
      // flash: the device page read under it.
      auto addr = tg.region->mapper().Lookup(tg.local);
      if (check(addr.status(), "mapper lookup")) {
        s0 = ctx.now;
        SpanTimer tf(tracer, "flash", "FlashDevice::ReadPage");
        auto res = tg.device->ReadPage(*addr, s0, noftl::flash::OpOrigin::kHost,
                                       buf.data(), nullptr);
        host[kDevice].push_back(static_cast<double>(tf.Done(s0, res.complete)));
        if (check(res.status, "FlashDevice::ReadPage")) ctx.AdvanceTo(res.complete);
      }

      // sched: one deterministic background pass at the current time.
      if (cfg_.scheduler) {
        s0 = ctx.now;
        SpanTimer tk(tracer, "sched", "Database::TickSchedulers");
        d->TickSchedulers(ctx.now);
        tk.Done(s0, s0);
      }

      // mvcc: opening a snapshot (flushes the dirty pool first).
      if (cfg_.snapshot_stocklevel && i % 4 == 0) {
        s0 = ctx.now;
        SpanTimer to(tracer, "mvcc", "Database::OpenSnapshot");
        auto snap = d->OpenSnapshot(&ctx);
        to.Done(s0, ctx.now);
        host[kSnapOpenSim].push_back(static_cast<double>(ctx.now - s0) / 1e3);
        if (check(snap.status(), "OpenSnapshot")) d->ReleaseSnapshot(*snap);
      }
    }

    MetricSet& L = r->layer;
    L.Set("tpcc.neworder_host_us", "us", "wall", Median(host[kNewOrder]), host[kNewOrder].size());
    L.Set("tpcc.payment_host_us", "us", "wall", Median(host[kPayment]), host[kPayment].size());
    L.Set("tpcc.orderstatus_host_us", "us", "wall", Median(host[kOrderStatus]), host[kOrderStatus].size());
    L.Set("tpcc.delivery_host_us", "us", "wall", Median(host[kDelivery]), host[kDelivery].size());
    L.Set("tpcc.stocklevel_host_us", "us", "wall", Median(host[kStockLevel]), host[kStockLevel].size());
    L.Set("index.lookup_host_ns", "ns", "wall", Median(host[kLookup]), host[kLookup].size());
    L.Set("index.scan_host_us", "us", "wall", Median(host[kScan]), host[kScan].size());
    L.Set("storage.heap_read_host_ns", "ns", "wall", Median(host[kHeapRead]), host[kHeapRead].size());
    L.Set("buffer.fix_hit_host_ns", "ns", "wall", Median(host[kFixHit]), host[kFixHit].size());
    L.Set("buffer.fix_miss_host_us", "us", "wall", Median(host[kFixMiss]), host[kFixMiss].size());
    L.Set("storage.tablespace_read_host_us", "us", "wall", Median(host[kTsRead]), host[kTsRead].size());
    L.Set("ftl.request_host_ns", "ns", "wall", Median(host[kRegion]), host[kRegion].size());
    L.Set("shard.request_host_ns", "ns", "wall", Median(host[kShard]), host[kShard].size());
    L.Set("flash.read_host_ns", "ns", "wall", Median(host[kDevice]), host[kDevice].size());
    L.Set("mvcc.snapshot_open_ms", "ms", "sim", Median(host[kSnapOpenSim]), host[kSnapOpenSim].size());
  }

  TpccConfig cfg_;
  uint64_t seed_;
  tp::TpccDbOptions db_options_;
  tp::DriverOptions driver_;
  bool census_done_ = false;
  CommittedCounts census_;
  uint64_t census_giveups_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTpccWorkload(const std::string& name,
                                           uint64_t seed,
                                           const Overrides& overrides) {
  TpccConfig config = ConfigFor(name);
  if (config.name.empty()) return nullptr;
  if (overrides.placement == "traditional") {
    config.placement = Placement::kTraditional;
  }
  if (overrides.workers > 0 && config.workers > 0) {
    config.workers = overrides.workers;
  }
  return std::make_unique<TpccWorkload>(config, seed,
                                        overrides.measured_scale);
}

}  // namespace perfbench
