// Each correctness check of the benchmark must reject a deliberately
// corrupted row or page: a check that passes on broken data proves nothing.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "churn.h"
#include "shard/shard_router.h"
#include "tpcc/driver.h"
#include "tpcc/placement.h"
#include "tpcc/schema.h"

namespace perfbench {
namespace {

namespace tp = noftl::tpcc;
using noftl::storage::RecordId;

/// A small loaded TPC-C database after a short deterministic run, plus the
/// committed counts the checks need.
struct SmallRun {
  std::unique_ptr<tp::TpccDb> db;
  CommittedCounts committed;
  noftl::txn::TxnContext ctx;

  SmallRun() {
    tp::TpccDbOptions o;
    o.db.geometry.channels = 4;
    o.db.geometry.dies_per_channel = 2;
    o.db.geometry.planes_per_die = 1;
    o.db.geometry.blocks_per_die = 64;
    o.db.geometry.pages_per_block = 32;
    o.db.geometry.page_size = 4096;
    o.db.buffer.frame_count = 128;
    // Small, but with the spec's 10 districts: the loader's W_YTD (300000)
    // equals the sum of its D_YTD (30000) only at 10 districts per warehouse.
    o.scale = tp::TpccScale::Small();
    o.scale.districts_per_warehouse = 10;
    o.scale.customers_per_district = 30;
    o.scale.initial_orders_per_district = 30;
    o.scale.initial_new_orders_per_district = 9;
    o.placement = tp::TraditionalPlacement(o.db.geometry.total_dies());
    auto loaded = tp::TpccDb::CreateAndLoad(o);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    db = std::move(*loaded);
    tp::DriverOptions d;
    d.terminals = 2;
    d.max_transactions = 300;
    auto report = tp::TpccDriver(db.get(), d).Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    committed = CommittedOf(*report);
    EXPECT_GT(committed.new_orders, 0u);
    EXPECT_GT(committed.payments, 0u);
    ctx.Begin(1'000'000'000);
  }

  CheckResult Check() { return CheckTpcc(db.get(), committed, ctx.now); }

  /// Read-modify-write of the row `index` points `key` at.
  template <typename Row, typename Fn>
  void Mutate(noftl::index::BTree* index, noftl::storage::HeapFile* heap,
              noftl::index::Key128 key, Fn&& fn) {
    auto packed = index->Lookup(&ctx, key);
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    const RecordId rid = RecordId::Unpack(*packed);
    auto bytes = heap->Read(&ctx, rid);
    ASSERT_TRUE(bytes.ok());
    Row row{};
    ASSERT_TRUE(tp::RowFromBytes(*bytes, &row).ok());
    fn(&row);
    ASSERT_TRUE(heap->Update(&ctx, rid, tp::RowSlice(row)).ok());
  }
};

bool Mentions(const CheckResult& r, const std::string& what) {
  for (const auto& f : r.failures) {
    if (f.find(what) != std::string::npos) return true;
  }
  return false;
}

TEST(TpccChecks, PassOnAnUntouchedRun) {
  SmallRun run;
  CheckResult r = run.Check();
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures[0]);
  EXPECT_GT(r.rows_scanned, 0u);
  EXPECT_TRUE(CheckStack(run.db->database()).empty());
}

TEST(TpccChecks, DistrictYtdCorruptionFails3321) {
  SmallRun run;
  run.Mutate<tp::DistrictRow>(run.db->d_idx, run.db->district,
                              tp::DistrictKey(1, 1),
                              [](tp::DistrictRow* d) { d->ytd += 1.0; });
  EXPECT_TRUE(Mentions(run.Check(), "3.3.2.1"));
}

TEST(TpccChecks, NextOrderIdCorruptionFails3322) {
  SmallRun run;
  run.Mutate<tp::DistrictRow>(run.db->d_idx, run.db->district,
                              tp::DistrictKey(1, 2),
                              [](tp::DistrictRow* d) { d->next_o_id += 1; });
  CheckResult r = run.Check();
  EXPECT_TRUE(Mentions(r, "3.3.2.2"));
  EXPECT_TRUE(Mentions(r, "sum(D_NEXT_O_ID-1)"));
}

TEST(TpccChecks, MissingNewOrderRowFails3323) {
  SmallRun run;
  // Delete the second-oldest NEW-ORDER row of district (1, 1): neither its
  // min nor its max moves, so only the row count betrays the gap.
  std::vector<uint64_t> rids;
  const noftl::index::Key128 first = tp::NewOrderKey(1, 1, 0);
  ASSERT_TRUE(run.db->no_idx
                  ->ScanFrom(&run.ctx, first,
                             [&](noftl::index::Key128 k, uint64_t v) {
                               if (k.hi != first.hi) return false;
                               rids.push_back(v);
                               return true;
                             })
                  .ok());
  ASSERT_GE(rids.size(), 3u);
  ASSERT_TRUE(
      run.db->new_order->Delete(&run.ctx, RecordId::Unpack(rids[1])).ok());
  CheckResult r = run.Check();
  EXPECT_TRUE(Mentions(r, "3.3.2.3"));
  EXPECT_TRUE(Mentions(r, "NEW-ORDER rows = undelivered"));
}

TEST(TpccChecks, OrderLineCountCorruptionFails3324) {
  SmallRun run;
  run.Mutate<tp::OrderRow>(run.db->o_idx, run.db->order, tp::OrderKey(1, 2, 5),
                           [](tp::OrderRow* o) { o->ol_cnt += 1; });
  EXPECT_TRUE(Mentions(run.Check(), "3.3.2.4"));
}

TEST(TpccChecks, ExtraHistoryRowFailsIdentity) {
  SmallRun run;
  tp::HistoryRow h{};
  h.w_id = 1;
  ASSERT_TRUE(run.db->history->Insert(&run.ctx, tp::RowSlice(h)).ok());
  EXPECT_TRUE(Mentions(run.Check(), "HISTORY rows"));
}

TEST(TpccChecks, WrongCommittedCountsFailIdentities) {
  SmallRun run;
  run.committed.payments += 1;
  run.committed.new_orders += 1;
  CheckResult r = run.Check();
  EXPECT_TRUE(Mentions(r, "HISTORY rows"));
  EXPECT_TRUE(Mentions(r, "sum(C_PAYMENT_CNT)"));
  EXPECT_TRUE(Mentions(r, "ORDER rows"));
}

TEST(StackChecks, LeakedSnapshotFails) {
  SmallRun run;
  auto snap = run.db->database()->OpenSnapshot(&run.ctx);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  std::vector<std::string> errors = CheckStack(run.db->database());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("still live"), std::string::npos);
  run.db->database()->ReleaseSnapshot(*snap);
  EXPECT_TRUE(CheckStack(run.db->database()).empty());
}

TEST(PageModel, AcceptsTheExpectedPage) {
  PageModel model(4096, 4, 7);
  std::vector<char> page(4096);
  model.NextWrite(2, page.data());
  EXPECT_EQ(model.Check(2, page.data()), "");
}

TEST(PageModel, RejectsACorruptedBody) {
  PageModel model(4096, 4, 7);
  std::vector<char> page(4096);
  model.NextWrite(1, page.data());
  page[2000] ^= 1;
  EXPECT_NE(model.Check(1, page.data()).find("body differs"), std::string::npos);
}

TEST(PageModel, RejectsAStaleVersionAndAnotherKeysPage) {
  PageModel model(4096, 4, 7);
  std::vector<char> old_page(4096), other(4096), page(4096);
  model.NextWrite(0, old_page.data());
  model.NextWrite(0, page.data());
  model.NextWrite(3, other.data());
  EXPECT_NE(model.Check(0, old_page.data()), "");  // lost update
  EXPECT_NE(model.Check(0, other.data()), "");     // misdirected read
}

TEST(PageModel, DetectsAPageOverwrittenBehindItsBack) {
  // The page-churn stack: a 2-shard striped region. One key is rewritten
  // through the space without the model knowing; reading it back fails.
  noftl::shard::ShardRouterOptions ro;
  ro.shard.shard_count = 2;
  ro.geometry.channels = 2;
  ro.geometry.dies_per_channel = 1;
  ro.geometry.blocks_per_die = 16;
  ro.geometry.pages_per_block = 16;
  ro.geometry.page_size = 4096;
  auto router = noftl::shard::ShardRouter::Open(ro);
  ASSERT_TRUE(router.ok());
  noftl::region::RegionOptions rgo;
  rgo.name = "rg";
  rgo.max_chips = 2;
  auto space = (*router)->CreateRegion(rgo);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  auto base = (*space)->AllocateExtent(16);
  ASSERT_TRUE(base.ok());

  PageModel model(4096, 16, 3);
  std::vector<char> page(4096), forged(4096), back(4096);
  noftl::SimTime t = 0;
  model.NextWrite(5, page.data());
  ASSERT_TRUE((*space)->WritePage(*base + 5, 0, page.data(), 1, &t).ok());
  ASSERT_TRUE((*space)->ReadPage(*base + 5, t, back.data(), &t).ok());
  EXPECT_EQ(model.Check(5, back.data()), "");

  model.Fill(5, 9, forged.data());
  ASSERT_TRUE((*space)->WritePage(*base + 5, t, forged.data(), 1, &t).ok());
  ASSERT_TRUE((*space)->ReadPage(*base + 5, t, back.data(), &t).ok());
  EXPECT_NE(model.Check(5, back.data()), "");
}

}  // namespace
}  // namespace perfbench
