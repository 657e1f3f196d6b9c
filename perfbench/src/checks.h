// Correctness checks computed by the benchmark itself, apart from the
// program: the TPC-C consistency conditions (clause 3.3.2.1-4) plus row-count
// identities derived from the committed count of each transaction type,
// all evaluated by scanning the tables through HeapFile::Scan.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "noftl/region.h"
#include "tpcc/driver.h"
#include "tpcc/tpcc_db.h"

namespace perfbench {

/// Transactions committed since the load, by type (rolled-back NewOrders and
/// give-ups excluded).
struct CommittedCounts {
  uint64_t new_orders = 0;
  uint64_t payments = 0;
  uint64_t deliveries = 0;

  CommittedCounts& operator+=(const CommittedCounts& o) {
    new_orders += o.new_orders;
    payments += o.payments;
    deliveries += o.deliveries;
    return *this;
  }
};

/// Per-type committed counts of a driver report's measured phase.
/// Rolled-back NewOrders are completed work but write nothing; give-ups are
/// counted as rollbacks by the driver and are failures here.
CommittedCounts CommittedOf(const noftl::tpcc::DriverReport& report);

struct CheckResult {
  std::vector<std::string> failures;  ///< one line per violated condition
  uint64_t rows_scanned = 0;
  bool ok() const { return failures.empty(); }
};

/// Scan every TPC-C table and check:
///   3.3.2.1  W_YTD = sum(D_YTD) per warehouse;
///   3.3.2.2  D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) per district;
///   3.3.2.3  NEW-ORDER rows = max(NO_O_ID) - min(NO_O_ID) + 1 per district;
///   3.3.2.4  sum(O_OL_CNT) = ORDER-LINE rows per district;
/// and the identities
///   ORDER rows   = initial orders + committed NewOrders,
///   sum(D_NEXT_O_ID - 1) = initial orders + committed NewOrders,
///   HISTORY rows = initial history rows + committed Payments,
///   sum(C_PAYMENT_CNT) = customers + committed Payments,
///   NEW-ORDER rows = undelivered ORDER rows (O_CARRIER_ID = 0).
/// `now` is the simulated time the scans are issued at.
CheckResult CheckTpcc(noftl::tpcc::TpccDb* db, const CommittedCounts& committed,
                      noftl::SimTime now);

/// The program's own integrity checks (VerifyIntegrity on every region
/// mapper and on the buffer pool) plus the snapshot leak check: no MVCC
/// snapshot may still be live once a run has ended.
std::vector<std::string> CheckStack(noftl::db::Database* db);

/// Every region mapper of the stack (one set per shard when sharded).
void ForEachRegion(noftl::db::Database* db,
                   const std::function<void(noftl::region::Region*)>& fn);

}  // namespace perfbench
