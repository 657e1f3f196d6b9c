#include "churn.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <queue>
#include <utility>

#include "common/histogram.h"
#include "common/rng.h"
#include "noftl/region.h"
#include "shard/shard_router.h"
#include "shard/sharded_space.h"
#include "storage/space_provider.h"
#include "workload.h"

namespace perfbench {

namespace {
constexpr uint32_t kMagic = 0x50424348;  // "PBCH"
}  // namespace

PageModel::PageModel(uint32_t page_size, uint64_t keys, uint64_t seed)
    : page_size_(page_size), versions_(keys, 0) {
  noftl::Rng rng(seed ^ 0x5EEDF00Dull);
  patterns_.resize(kPatterns);
  for (auto& p : patterns_) {
    p.resize(page_size);
    for (uint32_t i = 0; i < page_size; i += 8) {
      const uint64_t v = rng.Next();
      memcpy(p.data() + i, &v, std::min<uint32_t>(8, page_size - i));
    }
  }
}

void PageModel::Fill(uint64_t key, uint32_t version, char* buf) const {
  memcpy(buf, patterns_[version % kPatterns].data(), page_size_);
  memcpy(buf, &key, 8);
  memcpy(buf + 8, &version, 4);
  memcpy(buf + 12, &kMagic, 4);
}

void PageModel::NextWrite(uint64_t key, char* buf) {
  Fill(key, ++versions_[key], buf);
}

std::string PageModel::Check(uint64_t key, const char* buf) const {
  const uint32_t want = versions_[key];
  uint64_t got_key = 0;
  uint32_t got_version = 0, got_magic = 0;
  memcpy(&got_key, buf, 8);
  memcpy(&got_version, buf + 8, 4);
  memcpy(&got_magic, buf + 12, 4);
  if (got_magic != kMagic || got_key != key || got_version != want) {
    return "key " + std::to_string(key) + ": header (key " +
           std::to_string(got_key) + ", version " +
           std::to_string(got_version) + ") != expected version " +
           std::to_string(want);
  }
  if (memcmp(buf + 16, patterns_[want % kPatterns].data() + 16,
             page_size_ - 16) != 0) {
    return "key " + std::to_string(key) + ": body differs from version " +
           std::to_string(want);
  }
  return "";
}

namespace {

using noftl::SimTime;
using noftl::Status;
using noftl::storage::IoBatch;
using noftl::storage::IoOp;
using noftl::storage::IoTicket;
namespace shard = noftl::shard;

struct ChurnConfig {
  uint32_t shards = 2;
  uint32_t channels = 4;
  uint32_t dies_per_channel = 2;
  uint32_t blocks_per_die = 32;
  uint32_t pages_per_block = 64;
  uint32_t page_size = 4096;
  double fill = 0.80;          ///< share of logical capacity populated
  double read_share = 0.70;
  double zipf_theta = 0.99;
  uint32_t clients = 8;        ///< closed-loop clients, event-ordered
  uint32_t batch = 16;         ///< requests per point batch
  uint32_t scan_every = 8;     ///< every Nth batch of a client is a scan
  uint32_t scan_pages = 32;
  double warmup_turnover = 1.5;  ///< warm-up writes as a multiple of keys
  uint64_t measured_batches = 16000;
};

class ChurnWorkload : public Workload {
 public:
  ChurnWorkload(uint64_t seed, const Overrides& overrides) : seed_(seed) {
    cfg_.measured_batches = static_cast<uint64_t>(
        static_cast<double>(cfg_.measured_batches) * overrides.measured_scale);
    geometry_.channels = cfg_.channels;
    geometry_.dies_per_channel = cfg_.dies_per_channel;
    geometry_.blocks_per_die = cfg_.blocks_per_die;
    geometry_.pages_per_block = cfg_.pages_per_block;
    geometry_.page_size = cfg_.page_size;
  }

  bool deterministic() const override { return true; }

  void PrintConfig() const override {
    printf("config:\n");
    printf("  geometry          %u shard(s) x [%s]\n", cfg_.shards,
           geometry_.ToString().c_str());
    printf("  blocks_per_die    %u; region over all dies of every shard, "
           "default mapper GC reserve\n",
           cfg_.blocks_per_die);
    printf("  shards            %u (striped by extent)\n", cfg_.shards);
    printf("  pool              none (no DBMS layer)\n");
    printf("  clients           %u closed-loop, event-ordered, think 0\n",
           cfg_.clients);
    printf("  requests          batches of %u (zipf %.2f, %.0f%% reads / %.0f%% "
           "overwrites); every %uth batch a %u-page sequential scan\n",
           cfg_.batch, cfg_.zipf_theta, 100 * cfg_.read_share,
           100 * (1 - cfg_.read_share), cfg_.scan_every, cfg_.scan_pages);
    printf("  phases            populate once, warm-up %.1fx key turnover, "
           "measured %llu batches\n",
           cfg_.warmup_turnover,
           static_cast<unsigned long long>(cfg_.measured_batches));
    printf("  seed              %llu\n", static_cast<unsigned long long>(seed_));
    noftl::region::RegionOptions rgo;
    rgo.max_chips = geometry_.total_dies();
    auto logical = noftl::region::RegionLogicalPages(geometry_, rgo,
                                                     geometry_.total_dies());
    const double device = static_cast<double>(geometry_.total_pages());
    printf("  data size         %.0f%% of logical capacity = %.2f of device "
           "pages (logical %.2f of device)\n",
           100 * cfg_.fill,
           logical.ok() ? cfg_.fill * static_cast<double>(*logical) / device : 0,
           logical.ok() ? static_cast<double>(*logical) / device : 0);
  }

  RoundResult RunRound(Tracer* tracer) override {
    RoundResult r;
    const double t0 = WallSeconds();
    shard::ShardRouterOptions ro;
    ro.shard.shard_count = cfg_.shards;
    ro.shard.placement = shard::ShardPlacement::kStripe;
    ro.geometry = geometry_;
    auto router = shard::ShardRouter::Open(ro);
    if (!router.ok()) return FailRound(std::move(r), "open: " + router.status().ToString());
    noftl::region::RegionOptions rgo;
    rgo.name = "rg_churn";
    rgo.max_chips = geometry_.total_dies();
    auto space_or = (*router)->CreateRegion(rgo);
    if (!space_or.ok()) return FailRound(std::move(r), "region: " + space_or.status().ToString());
    shard::ShardedSpace* space = *space_or;

    uint64_t logical = 0;
    for (size_t s = 0; s < cfg_.shards; s++) {
      logical += (*router)->region(s, "rg_churn")->logical_pages();
    }
    const uint64_t extent = geometry_.pages_per_block;
    const uint64_t keys =
        static_cast<uint64_t>(cfg_.fill * static_cast<double>(logical)) /
        extent * extent;
    std::vector<uint64_t> lpn(keys);
    for (uint64_t k = 0; k < keys; k += extent) {
      auto base = space->AllocateExtent(extent);
      if (!base.ok()) return FailRound(std::move(r), "extent: " + base.status().ToString());
      for (uint64_t i = 0; i < extent; i++) lpn[k + i] = *base + i;
    }
    PageModel model(cfg_.page_size, keys, seed_);

    // Populate every key once, 64 pages per batch.
    SimTime clock = 0;
    std::vector<char> bufs(static_cast<size_t>(64) * cfg_.page_size);
    for (uint64_t k = 0; k < keys; k += 64) {
      IoBatch b;
      for (uint64_t i = k; i < std::min(keys, k + 64); i++) {
        char* p = bufs.data() + (i - k) * cfg_.page_size;
        model.NextWrite(i, p);
        b.AddWrite(lpn[i], p, 1);
      }
      Status st = RunBatch(space, &b, clock, &clock, &r);
      if (!st.ok()) return FailRound(std::move(r), "populate: " + st.ToString());
    }

    // Warm-up to a steady GC state (part of set-up), then the measured phase.
    noftl::Rng rng(seed_ * 2654435761ull + 1);
    noftl::Zipfian zipf(keys, cfg_.zipf_theta, &rng);
    std::vector<uint64_t> perm(keys);
    for (uint64_t i = 0; i < keys; i++) perm[i] = i;
    for (uint64_t i = keys; i > 1; i--) std::swap(perm[i - 1], perm[rng.Below(i)]);
    Clients clients(cfg_.clients, clock);
    const uint64_t warm_batches = static_cast<uint64_t>(
        cfg_.warmup_turnover * static_cast<double>(keys) /
        (cfg_.batch * (1 - cfg_.read_share)));
    RunPhase(space, &model, lpn, &zipf, perm, &rng, &clients, warm_batches,
             nullptr, &r);
    if (!r.errors.empty()) return r;
    r.e2e.Set("setup_s", "s", "wall", WallSeconds() - t0);

    std::vector<noftl::region::Region*> regions;
    std::vector<noftl::flash::FlashDevice*> devices;
    for (size_t s = 0; s < cfg_.shards; s++) {
      regions.push_back((*router)->region(s, "rg_churn"));
      devices.push_back((*router)->device(s));
      devices.back()->stats().Reset();
    }
    const Totals before = Collect(regions, devices, space);
    const SimTime measure_start = clients.Front();
    const double c0 = CpuSeconds(), w0 = WallSeconds();
    Phase m = RunPhase(space, &model, lpn, &zipf, perm, &rng, &clients,
                       cfg_.measured_batches, tracer, &r);
    const double w1 = WallSeconds(), c1 = CpuSeconds();
    const SimTime measure_end = clients.Latest();
    const Totals after = Collect(regions, devices, space);

    noftl::Histogram reads;
    uint64_t host_reads = 0, host_writes = 0, programs = 0, copybacks = 0;
    for (auto* dev : devices) {
      reads.Merge(dev->HostReadLatency());
      host_reads += dev->stats().host_reads();
      host_writes += dev->stats().host_writes();
      programs += dev->stats().total_programs();
      copybacks += dev->stats().total_copybacks();
    }
    const double requests = static_cast<double>(m.requests);
    r.e2e.Set("host_ops_per_s", "1/s", "wall", requests / (w1 - w0));
    r.e2e.Set("cpu_us_per_op", "us", "cpu", (c1 - c0) * 1e6 / requests);
    r.e2e.Set("sim_ops_per_s", "1/s", "sim",
              requests / (static_cast<double>(measure_end - measure_start) / 1e6));
    r.e2e.Set("resp_p50_ms", "ms", "sim", m.point.P50() / 1000.0, m.point.count());
    r.e2e.Set("resp_p99_ms", "ms", "sim", m.point.P99() / 1000.0, m.point.count());
    r.e2e.Set("scan_p50_ms", "ms", "sim", m.scan.P50() / 1000.0, m.scan.count());
    r.e2e.Set("flash_read_p99_us", "us", "sim", reads.P99(), reads.count());
    r.e2e.Set("write_amp", "pages/page", "sim",
              Ratio(programs + copybacks, host_writes), host_writes);

    const double span = static_cast<double>(measure_end - measure_start);
    double busy_sum = 0, busy_max = 0;
    for (size_t i = 0; i < after.die_busy.size(); i++) {
      const double f = static_cast<double>(after.die_busy[i] - before.die_busy[i]) / span;
      busy_sum += f;
      busy_max = std::max(busy_max, f);
    }
    const noftl::flash::FlashTiming timing;
    MetricSet& L = r.layer;
    L.Set("flash.reads_per_op", "count", "count", host_reads / requests);
    L.Set("flash.programs_per_op", "count", "count", programs / requests);
    L.Set("flash.die_busy_frac_mean", "fraction", "sim",
          busy_sum / static_cast<double>(after.die_busy.size()));
    L.Set("flash.die_busy_frac_max", "fraction", "sim", busy_max);
    L.Set("flash.read_wait_us", "us", "sim",
          std::max(0.0, reads.Mean() - static_cast<double>(timing.read_us +
                                                           timing.transfer_us)));
    auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
    L.Set("ftl.gc_copybacks_per_write", "count", "count",
          Ratio(delta(after.gc_copybacks, before.gc_copybacks),
                delta(after.mapper_writes, before.mapper_writes)));
    L.Set("ftl.victim_steps_per_pick", "count", "count",
          Ratio(delta(after.victim_steps, before.victim_steps),
                delta(after.victim_picks, before.victim_picks)));
    L.Set("ftl.emergency_reclaims", "count", "count",
          delta(after.emergency, before.emergency));
    L.Set("ftl.throttle_busy", "count", "count",
          delta(after.throttle_busy, before.throttle_busy));
    L.Set("shard.scatter_per_batch", "count", "count",
          Ratio(delta(after.scatter_requests, before.scatter_requests),
                delta(after.batches, before.batches)));
    if (tracer != nullptr) {
      L.Set("shard.request_host_ns", "ns", "wall",
            static_cast<double>(m.span_ns) / requests, m.batches);
      Ladder(regions[0], devices[0], lpn, &rng, tracer, measure_end, &r);
    }

    // Final full read-back against the model, then the program's own
    // integrity checks.
    ReadBack(space, &model, lpn, measure_end, &r);
    for (auto* rg : regions) {
      Status st = rg->VerifyIntegrity();
      if (!st.ok()) r.errors.push_back("mapper " + rg->name() + ": " + st.ToString());
    }
    return r;
  }

 private:
  /// Client clocks; the client with the smallest clock issues next.
  class Clients {
   public:
    Clients(uint32_t n, SimTime start) : issued_(n, 0) {
      for (uint32_t i = 0; i < n; i++) queue_.push({start, i});
    }
    SimTime Front() const { return queue_.top().first; }
    SimTime Latest() const { return latest_; }
    std::pair<SimTime, uint32_t> Pop() {
      auto e = queue_.top();
      queue_.pop();
      return e;
    }
    void Push(SimTime t, uint32_t c) {
      latest_ = std::max(latest_, t);
      issued_[c]++;
      queue_.push({t, c});
    }
    uint64_t issued(uint32_t c) const { return issued_[c]; }

   private:
    using Entry = std::pair<SimTime, uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
    std::vector<uint64_t> issued_;
    SimTime latest_ = 0;
  };

  struct Phase {
    uint64_t requests = 0;
    uint64_t batches = 0;
    uint64_t span_ns = 0;  ///< host time inside SubmitBatch+WaitBatch
    noftl::Histogram point;
    noftl::Histogram scan;
  };

  struct Totals {
    uint64_t mapper_writes = 0, gc_copybacks = 0, victim_picks = 0,
             victim_steps = 0, emergency = 0, throttle_busy = 0,
             scatter_requests = 0, batches = 0;
    std::vector<SimTime> die_busy;
  };

  Totals Collect(const std::vector<noftl::region::Region*>& regions,
                 const std::vector<noftl::flash::FlashDevice*>& devices,
                 shard::ShardedSpace* space) const {
    Totals t;
    for (auto* rg : regions) {
      const auto& s = rg->stats();
      t.mapper_writes += s.host_writes;
      t.gc_copybacks += s.gc_copybacks;
      t.victim_picks += s.victim_picks;
      t.victim_steps += s.victim_scan_steps;
      t.emergency += s.emergency_reclaims;
      t.throttle_busy += s.throttle_busy;
    }
    for (auto* dev : devices) {
      for (uint32_t d = 0; d < dev->geometry().total_dies(); d++) {
        t.die_busy.push_back(dev->DieBusyTime(d));
      }
    }
    t.scatter_requests = space->stats().scatter_requests;
    t.batches = space->stats().merged_batches + space->stats().passthrough_batches;
    return t;
  }

  /// Submit + wait one batch at `issue`; counts its requests and failed
  /// requests into `r`. Returns the submission error, if any.
  static Status RunBatch(shard::ShardedSpace* space, IoBatch* b, SimTime issue,
                         SimTime* complete, RoundResult* r) {
    IoTicket ticket = 0;
    r->attempted += b->size();
    Status st = space->SubmitBatch(b, issue, &ticket);
    if (st.ok()) st = space->WaitBatch(ticket, complete);
    for (const auto& req : b->requests()) {
      if (!req.status.ok()) r->failed++;
    }
    return st;
  }

  /// `batches` closed-loop batches from the event-ordered clients. Reads are
  /// checked against the model as they complete.
  Phase RunPhase(shard::ShardedSpace* space, PageModel* model,
                 const std::vector<uint64_t>& lpn, noftl::Zipfian* zipf,
                 const std::vector<uint64_t>& perm, noftl::Rng* rng,
                 Clients* clients, uint64_t batches, Tracer* tracer,
                 RoundResult* r) {
    Phase ph;
    const uint64_t keys = lpn.size();
    const uint32_t max_req = std::max(cfg_.batch, cfg_.scan_pages);
    std::vector<char> bufs(static_cast<size_t>(max_req) * cfg_.page_size);
    std::vector<uint64_t> batch_keys;
    for (uint64_t n = 0; n < batches; n++) {
      auto [issue, c] = clients->Pop();
      IoBatch b;
      batch_keys.clear();
      const bool scan = clients->issued(c) % cfg_.scan_every == cfg_.scan_every - 1;
      if (scan) {
        const uint64_t start = rng->Below(keys - cfg_.scan_pages);
        for (uint32_t i = 0; i < cfg_.scan_pages; i++) {
          batch_keys.push_back(start + i);
          b.AddRead(lpn[start + i], bufs.data() + static_cast<size_t>(i) * cfg_.page_size);
        }
      } else {
        for (uint32_t i = 0; i < cfg_.batch; i++) {
          uint64_t key;
          do {
            key = perm[zipf->Next()];
          } while (std::find(batch_keys.begin(), batch_keys.end(), key) !=
                   batch_keys.end());
          batch_keys.push_back(key);
          char* p = bufs.data() + static_cast<size_t>(i) * cfg_.page_size;
          if (rng->NextDouble() < cfg_.read_share) {
            b.AddRead(lpn[key], p);
          } else {
            model->NextWrite(key, p);
            b.AddWrite(lpn[key], p, 1);
          }
        }
      }
      SimTime complete = issue;
      IoTicket ticket = 0;
      r->attempted += b.size();
      const uint64_t h0 = Tracer::NowNs();
      Status st = space->SubmitBatch(&b, issue, &ticket);
      const uint64_t h1 = Tracer::NowNs();
      if (st.ok()) st = space->WaitBatch(ticket, &complete);
      const uint64_t h2 = Tracer::NowNs();
      if (tracer != nullptr) {
        tracer->Add(Span{"shard", "ShardedSpace::SubmitBatch", h0, h1, issue, issue});
        tracer->Add(Span{"shard", "ShardedSpace::WaitBatch", h1, h2, issue, complete});
      }
      ph.span_ns += h2 - h0;
      if (!st.ok()) {
        r->failed += b.size();
        r->errors.push_back("batch: " + st.ToString());
        return ph;
      }
      for (size_t i = 0; i < b.size(); i++) {
        const auto& req = b[i];
        if (!req.status.ok()) {
          r->failed++;
          continue;
        }
        if (req.op == IoOp::kRead) {
          std::string bad = model->Check(batch_keys[i], req.read_buf);
          if (!bad.empty() && r->errors.size() < 5) r->errors.push_back("read " + bad);
        }
      }
      (scan ? ph.scan : ph.point).Record(complete - issue);
      ph.requests += b.size();
      ph.batches++;
      clients->Push(complete, c);
    }
    return ph;
  }

  /// Read batches through shard 0's region (its mapper) and single page
  /// reads on its device, each one a span.
  void Ladder(noftl::region::Region* rg, noftl::flash::FlashDevice* dev,
              const std::vector<uint64_t>& lpn, noftl::Rng* rng,
              Tracer* tracer, SimTime now, RoundResult* r) {
    std::vector<uint64_t> local;
    for (uint64_t l : lpn) {
      if (shard::ShardedSpace::ShardOf(l) == 0) local.push_back(shard::ShardedSpace::LocalOf(l));
    }
    std::vector<char> bufs(static_cast<size_t>(cfg_.batch) * cfg_.page_size);
    std::vector<double> region_ns, device_ns;
    for (int i = 0; i < 64; i++) {
      IoBatch b;
      for (uint32_t j = 0; j < cfg_.batch; j++) {
        b.AddRead(local[rng->Below(local.size())],
                  bufs.data() + static_cast<size_t>(j) * cfg_.page_size);
      }
      IoTicket ticket = 0;
      SimTime complete = now;
      SpanTimer t(tracer, "ftl", "Region::SubmitBatch+WaitBatch");
      Status st = rg->SubmitBatch(&b, now, &ticket);
      if (st.ok()) st = rg->WaitBatch(ticket, &complete);
      if (st.ok()) st = b.FirstError();
      region_ns.push_back(static_cast<double>(t.Done(now, complete)) / cfg_.batch);
      if (!st.ok()) r->errors.push_back("ladder region batch: " + st.ToString());
      now = std::max(now, complete);

      auto addr = rg->mapper().Lookup(local[rng->Below(local.size())]);
      if (!addr.ok()) continue;
      SpanTimer tf(tracer, "flash", "FlashDevice::ReadPage");
      auto res = dev->ReadPage(*addr, now, noftl::flash::OpOrigin::kHost,
                               bufs.data(), nullptr);
      device_ns.push_back(static_cast<double>(tf.Done(now, res.complete)));
      if (!res.ok()) r->errors.push_back("ladder device read: " + res.status.ToString());
      now = std::max(now, res.complete);
    }
    r->layer.Set("ftl.request_host_ns", "ns", "wall", Median(region_ns), region_ns.size());
    r->layer.Set("flash.read_host_ns", "ns", "wall", Median(device_ns), device_ns.size());
  }

  /// Read every key back and compare with the model.
  void ReadBack(shard::ShardedSpace* space, const PageModel* model,
                const std::vector<uint64_t>& lpn, SimTime now, RoundResult* r) {
    std::vector<char> bufs(static_cast<size_t>(64) * cfg_.page_size);
    for (uint64_t k = 0; k < lpn.size(); k += 64) {
      IoBatch b;
      const uint64_t end = std::min<uint64_t>(lpn.size(), k + 64);
      for (uint64_t i = k; i < end; i++) {
        b.AddRead(lpn[i], bufs.data() + (i - k) * cfg_.page_size);
      }
      SimTime complete = now;
      Status st = RunBatch(space, &b, now, &complete, r);
      if (!st.ok()) {
        r->errors.push_back("read-back: " + st.ToString());
        return;
      }
      for (uint64_t i = k; i < end; i++) {
        std::string bad = model->Check(i, bufs.data() + (i - k) * cfg_.page_size);
        if (!bad.empty() && r->errors.size() < 10) r->errors.push_back("read-back " + bad);
      }
    }
  }

  ChurnConfig cfg_;
  uint64_t seed_;
  noftl::flash::FlashGeometry geometry_;
};

}  // namespace

std::unique_ptr<Workload> MakeChurnWorkload(uint64_t seed,
                                            const Overrides& overrides) {
  return std::make_unique<ChurnWorkload>(seed, overrides);
}

}  // namespace perfbench
