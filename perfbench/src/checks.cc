#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>

#include "tpcc/schema.h"

namespace perfbench {

namespace tpcc = noftl::tpcc;

namespace {

struct DistrictTally {
  double d_ytd = 0;
  int64_t next_o_id = -1;  ///< -1 = district row missing
  int64_t max_o_id = 0;
  uint64_t sum_ol_cnt = 0;
  uint64_t order_lines = 0;
  uint64_t no_rows = 0;
  int64_t no_min = INT64_MAX;
  int64_t no_max = 0;
};

template <typename Row>
Row Decode(noftl::Slice rec) {
  Row row{};
  memcpy(&row, rec.data(), std::min(sizeof(Row), rec.size()));
  return row;
}

std::string Where(int32_t w, int32_t d) {
  return "w=" + std::to_string(w) + " d=" + std::to_string(d);
}

}  // namespace

CommittedCounts CommittedOf(const tpcc::DriverReport& r) {
  CommittedCounts c;
  const uint64_t no =
      r.response_us[static_cast<int>(tpcc::TxnType::kNewOrder)].count();
  const uint64_t rolled = r.rollbacks - std::min(r.rollbacks, r.txn_giveups);
  c.new_orders = no - std::min(no, rolled);
  c.payments =
      r.response_us[static_cast<int>(tpcc::TxnType::kPayment)].count();
  c.deliveries =
      r.response_us[static_cast<int>(tpcc::TxnType::kDelivery)].count();
  return c;
}

void ForEachRegion(noftl::db::Database* db,
                   const std::function<void(noftl::region::Region*)>& fn) {
  if (db->sharded()) {
    for (size_t s = 0; s < db->shard_count(); s++) {
      for (auto* rg : db->shards()->regions(s)->regions()) fn(rg);
    }
  } else if (db->regions() != nullptr) {
    for (auto* rg : db->regions()->regions()) fn(rg);
  }
}

std::vector<std::string> CheckStack(noftl::db::Database* db) {
  std::vector<std::string> errors;
  ForEachRegion(db, [&](noftl::region::Region* rg) {
    noftl::Status s = rg->VerifyIntegrity();
    if (!s.ok()) errors.push_back("mapper " + rg->name() + ": " + s.ToString());
  });
  noftl::Status s = db->buffer()->VerifyIntegrity();
  if (!s.ok()) errors.push_back("buffer pool: " + s.ToString());
  if (db->snapshots() != nullptr) {
    if (db->snapshots()->live_count() != 0) {
      errors.push_back(std::to_string(db->snapshots()->live_count()) +
                       " snapshot(s) still live after the run");
    }
    s = db->snapshots()->Verify();
    if (!s.ok()) errors.push_back("snapshots: " + s.ToString());
  }
  return errors;
}

CheckResult CheckTpcc(tpcc::TpccDb* db, const CommittedCounts& committed,
                      noftl::SimTime now) {
  CheckResult result;
  auto fail = [&](const std::string& what) { result.failures.push_back(what); };
  noftl::txn::TxnContext ctx;
  ctx.Begin(now);

  std::map<int32_t, double> w_ytd;
  std::map<std::pair<int32_t, int32_t>, DistrictTally> districts;
  uint64_t order_rows = 0, undelivered = 0, history_rows = 0, no_rows = 0;
  uint64_t payment_cnt_sum = 0;

  auto scan = [&](noftl::storage::HeapFile* heap, auto&& fn) {
    noftl::Status s = heap->Scan(&ctx, [&](noftl::storage::RecordId,
                                           noftl::Slice rec) {
      result.rows_scanned++;
      fn(rec);
      return true;
    });
    if (!s.ok()) fail("scan of " + heap->name() + " failed: " + s.ToString());
  };

  scan(db->warehouse, [&](noftl::Slice rec) {
    const auto row = Decode<tpcc::WarehouseRow>(rec);
    w_ytd[row.w_id] = row.ytd;
  });
  scan(db->district, [&](noftl::Slice rec) {
    const auto row = Decode<tpcc::DistrictRow>(rec);
    DistrictTally& t = districts[{row.w_id, row.d_id}];
    t.d_ytd = row.ytd;
    t.next_o_id = row.next_o_id;
  });
  scan(db->order, [&](noftl::Slice rec) {
    const auto row = Decode<tpcc::OrderRow>(rec);
    DistrictTally& t = districts[{row.w_id, row.d_id}];
    t.max_o_id = std::max<int64_t>(t.max_o_id, row.o_id);
    t.sum_ol_cnt += static_cast<uint64_t>(row.ol_cnt);
    order_rows++;
    if (row.carrier_id == 0) undelivered++;
  });
  scan(db->new_order, [&](noftl::Slice rec) {
    const auto row = Decode<tpcc::NewOrderRow>(rec);
    DistrictTally& t = districts[{row.w_id, row.d_id}];
    t.no_rows++;
    t.no_min = std::min<int64_t>(t.no_min, row.o_id);
    t.no_max = std::max<int64_t>(t.no_max, row.o_id);
    no_rows++;
  });
  scan(db->order_line, [&](noftl::Slice rec) {
    const auto row = Decode<tpcc::OrderLineRow>(rec);
    districts[{row.w_id, row.d_id}].order_lines++;
  });
  scan(db->history, [&](noftl::Slice) { history_rows++; });
  scan(db->customer, [&](noftl::Slice rec) {
    const auto row = Decode<tpcc::CustomerRow>(rec);
    payment_cnt_sum += static_cast<uint64_t>(row.payment_cnt);
  });
  if (!result.ok()) return result;

  // 3.3.2.1: W_YTD = sum(D_YTD).
  std::map<int32_t, double> d_ytd_sum;
  for (const auto& [key, t] : districts) d_ytd_sum[key.first] += t.d_ytd;
  for (const auto& [w, ytd] : w_ytd) {
    if (std::fabs(ytd - d_ytd_sum[w]) > 1e-6 * std::max(1.0, std::fabs(ytd))) {
      fail("3.3.2.1 w=" + std::to_string(w) + ": W_YTD " +
           std::to_string(ytd) + " != sum(D_YTD) " +
           std::to_string(d_ytd_sum[w]));
    }
  }

  const tpcc::TpccScale& scale = db->scale();
  uint64_t next_o_sum = 0;
  for (const auto& [key, t] : districts) {
    const auto [w, d] = key;
    if (t.next_o_id < 0) {
      fail("district row missing for " + Where(w, d));
      continue;
    }
    next_o_sum += static_cast<uint64_t>(t.next_o_id - 1);
    // 3.3.2.2: D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID).
    if (t.next_o_id - 1 != t.max_o_id) {
      fail("3.3.2.2 " + Where(w, d) + ": D_NEXT_O_ID-1 " +
           std::to_string(t.next_o_id - 1) + " != max(O_ID) " +
           std::to_string(t.max_o_id));
    }
    if (t.no_rows > 0 && t.no_max != t.max_o_id) {
      fail("3.3.2.2 " + Where(w, d) + ": max(NO_O_ID) " +
           std::to_string(t.no_max) + " != max(O_ID) " +
           std::to_string(t.max_o_id));
    }
    // 3.3.2.3: NEW-ORDER rows = max - min + 1.
    if (t.no_rows > 0 &&
        static_cast<int64_t>(t.no_rows) != t.no_max - t.no_min + 1) {
      fail("3.3.2.3 " + Where(w, d) + ": " + std::to_string(t.no_rows) +
           " NEW-ORDER rows != max-min+1 " +
           std::to_string(t.no_max - t.no_min + 1));
    }
    // 3.3.2.4: sum(O_OL_CNT) = ORDER-LINE rows.
    if (t.sum_ol_cnt != t.order_lines) {
      fail("3.3.2.4 " + Where(w, d) + ": sum(O_OL_CNT) " +
           std::to_string(t.sum_ol_cnt) + " != ORDER-LINE rows " +
           std::to_string(t.order_lines));
    }
  }

  // Identities over the committed work.
  const uint64_t dists = static_cast<uint64_t>(scale.warehouses) *
                         scale.districts_per_warehouse;
  const uint64_t customers = dists * scale.customers_per_district;
  const uint64_t want_orders =
      dists * scale.initial_orders_per_district + committed.new_orders;
  auto identity = [&](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      fail(std::string(what) + ": " + std::to_string(got) + " != expected " +
           std::to_string(want));
    }
  };
  identity("ORDER rows = initial + committed NewOrders", order_rows,
           want_orders);
  identity("sum(D_NEXT_O_ID-1) = initial + committed NewOrders", next_o_sum,
           want_orders);
  identity("HISTORY rows = initial + committed Payments", history_rows,
           customers + committed.payments);
  identity("sum(C_PAYMENT_CNT) = customers + committed Payments",
           payment_cnt_sum, customers + committed.payments);
  identity("NEW-ORDER rows = undelivered ORDER rows", no_rows, undelivered);
  return result;
}

}  // namespace perfbench
