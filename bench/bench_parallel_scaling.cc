// E2 — Fragment parallelism (paper §2.1, §2.2).
//
// Paper claim: "performance improvement by introduction of parallelism";
// fragmented relations are processed by many One-Fragment Managers in
// parallel, coordinated per query.
//
// Harness: the same selection / aggregation / join workloads over a
// 50,000-row relation fragmented into 1..48 fragments of a 64-PE machine;
// reports simulated response time and speedup versus one fragment.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "gdh/messages.h"

using prisma::StrFormat;
using prisma::core::MachineConfig;
using prisma::core::PrismaDb;

namespace {

constexpr int kBatch = 500;
int g_rows = 50'000;

struct Timings {
  double select_ms;
  double aggregate_ms;
  double join_ms;
  /// Registry series for the three queries: tuples the OFMs scanned and
  /// messages the interconnect delivered (deltas over the query phase).
  uint64_t tuples_scanned;
  uint64_t messages;
};

Timings RunWithFragments(int fragments) {
  const int kRows = g_rows;
  PrismaDb db{MachineConfig()};  // 64 PEs.
  auto must = [](auto&& r) {
    PRISMA_CHECK(r.ok()) << r.status().ToString();
    return std::forward<decltype(r)>(r).value();
  };
  must(db.Execute(StrFormat(
      "CREATE TABLE sales (id INT, region INT, amount INT) "
      "FRAGMENTED BY HASH(id) INTO %d FRAGMENTS",
      fragments)));
  must(db.Execute(
      "CREATE TABLE region (id INT, name STRING) "
      "FRAGMENTED BY HASH(id) INTO 2 FRAGMENTS"));
  for (int r = 0; r < 10; ++r) {
    must(db.Execute(StrFormat("INSERT INTO region VALUES (%d, 'r%d')", r, r)));
  }
  for (int base = 0; base < kRows; base += kBatch) {
    std::string sql = "INSERT INTO sales VALUES ";
    for (int i = 0; i < kBatch; ++i) {
      const int id = base + i;
      if (i > 0) sql += ", ";
      sql += StrFormat("(%d, %d, %d)", id, id % 10, (id * 37) % 1000);
    }
    must(db.Execute(sql));
  }

  Timings t;
  const uint64_t scanned_before = db.metrics().CounterTotal("ofm.tuples_scanned");
  const uint64_t messages_before =
      db.metrics().CounterValue("net.messages_delivered");
  t.select_ms = static_cast<double>(
                    must(db.Execute("SELECT id FROM sales WHERE amount < 20"))
                        .response_time_ns) /
                1e6;
  t.aggregate_ms =
      static_cast<double>(
          must(db.Execute("SELECT region, COUNT(*), SUM(amount) FROM sales "
                          "GROUP BY region"))
              .response_time_ns) /
      1e6;
  t.join_ms = static_cast<double>(
                  must(db.Execute(
                          "SELECT r.name, s.amount FROM sales s "
                          "JOIN region r ON s.region = r.id "
                          "WHERE s.amount >= 990"))
                      .response_time_ns) /
              1e6;
  t.tuples_scanned =
      db.metrics().CounterTotal("ofm.tuples_scanned") - scanned_before;
  t.messages =
      db.metrics().CounterValue("net.messages_delivered") - messages_before;
  return t;
}

// ------------------------------------------- join execution strategies
//
// The same logical join under the three physical executions the machine
// supports (--shuffle):
//   co-located  orders is fragmented on the join key, aligned with cust —
//               the allocation manager anticipated the join (§2.2);
//   shuffle     orders is fragmented on its primary key, so the exchange
//               layer streams it between the PEs at query time (§10);
//   gather      exchanges disabled: both inputs ship to the coordinator.

enum class JoinMode { kColocated, kShuffle, kGather };

struct JoinStrategyRow {
  double ms = 0;
  double mbits = 0;
  uint64_t batches = 0;  // exchange.batches_sent over the join.
};

JoinStrategyRow RunJoinStrategy(int fragments, JoinMode mode) {
  const int kRows = g_rows;
  MachineConfig config;  // 64 PEs.
  if (mode == JoinMode::kGather) {
    config.rules.colocated_joins = false;
    config.rules.exchange_joins = false;
  }
  PrismaDb db(config);
  auto must = [](auto&& r) {
    PRISMA_CHECK(r.ok()) << r.status().ToString();
    return std::forward<decltype(r)>(r).value();
  };
  must(db.Execute(StrFormat(
      "CREATE TABLE orders (id INT, cust INT, qty INT) "
      "FRAGMENTED BY HASH(%s) INTO %d FRAGMENTS",
      mode == JoinMode::kColocated ? "cust" : "id", fragments)));
  must(db.Execute(StrFormat(
      "CREATE TABLE cust (id INT, name STRING) "
      "FRAGMENTED BY HASH(id) INTO %d FRAGMENTS",
      fragments)));
  for (int base = 0; base < 10'000; base += kBatch) {
    std::string sql = "INSERT INTO cust VALUES ";
    for (int i = 0; i < kBatch; ++i) {
      if (i > 0) sql += ", ";
      sql += StrFormat("(%d, 'c%d')", base + i, base + i);
    }
    must(db.Execute(sql));
  }
  for (int base = 0; base < kRows; base += kBatch) {
    std::string sql = "INSERT INTO orders VALUES ";
    for (int i = 0; i < kBatch; ++i) {
      const int id = base + i;
      if (i > 0) sql += ", ";
      sql += StrFormat("(%d, %d, %d)", id, id % 10'000, (id * 37) % 1000);
    }
    must(db.Execute(sql));
  }

  JoinStrategyRow row;
  const int64_t bits_before =
      static_cast<int64_t>(db.metrics().CounterValue("net.link_bits"));
  const uint64_t batches_before =
      db.metrics().CounterTotal("exchange.batches_sent");
  row.ms = static_cast<double>(
               must(db.Execute("SELECT c.name, o.qty FROM orders o "
                               "JOIN cust c ON o.cust = c.id "
                               "WHERE o.qty >= 990"))
                   .response_time_ns) /
           1e6;
  row.mbits =
      static_cast<double>(
          static_cast<int64_t>(db.metrics().CounterValue("net.link_bits")) -
          bits_before) /
      1e6;
  row.batches =
      db.metrics().CounterTotal("exchange.batches_sent") - batches_before;
  return row;
}

void JoinStrategySweep(const std::vector<int>& fragment_sweep) {
  std::printf("E2b: join execution strategies, orders(%d) x cust(10000), "
              "64 PEs\n",
              g_rows);
  std::printf("%-10s | %13s | %10s %10s | %10s %10s | %8s\n", "fragments",
              "colocated ms", "shuffle ms", "Mb", "gather ms", "Mb",
              "batches");
  for (const int fragments : fragment_sweep) {
    const JoinStrategyRow colocated =
        RunJoinStrategy(fragments, JoinMode::kColocated);
    const JoinStrategyRow shuffle =
        RunJoinStrategy(fragments, JoinMode::kShuffle);
    const JoinStrategyRow gather =
        RunJoinStrategy(fragments, JoinMode::kGather);
    PRISMA_CHECK(colocated.batches == 0 && gather.batches == 0);
    PRISMA_CHECK(fragments == 1 || shuffle.batches > 0)
        << "the shuffle run did not use the exchange layer";
    std::printf("%-10d | %13.2f | %10.2f %10.2f | %10.2f %10.2f | %8llu\n",
                fragments, colocated.ms, shuffle.ms, shuffle.mbits, gather.ms,
                gather.mbits, static_cast<unsigned long long>(shuffle.batches));
  }
  std::printf(
      "\nreading: co-located placement wins when the allocation manager "
      "anticipated the\njoin. When it did not, the exchange layer picks the "
      "cheapest movement by modeled\nshipped tuples: broadcast of the small "
      "cust side at low fragment counts, then a\nhash shuffle of the "
      "filtered orders side once replication would cost more — and\neither "
      "beats shipping both inputs to the coordinator for a serial join.\n");
}

// ------------------------------------------------- column-frame shuffle
//
// A shuffled join (--vectorized). Every exchange frame is column-encoded,
// so `exchange.wire_bits` must stay strictly below what the row encoding
// charged for the same rows (DESIGN.md §12.2; the smoke ctest case is the
// regression gate for the wire-savings contract).

struct ShuffleRow {
  double ms = 0;
  uint64_t batches = 0;
  uint64_t wire_bits = 0;
  /// What the row encoding (16 bytes of framing per message plus each
  /// tuple's byte size) charged for the same delivered batches.
  uint64_t row_model_bits = 0;
};

ShuffleRow RunShuffleJoin(int fragments) {
  const int kRows = g_rows;
  MachineConfig config;  // 64 PEs.
  PrismaDb db(config);
  auto must = [](auto&& r) {
    PRISMA_CHECK(r.ok()) << r.status().ToString();
    return std::forward<decltype(r)>(r).value();
  };
  must(db.Execute(StrFormat(
      "CREATE TABLE orders (id INT, cust INT, qty INT) "
      "FRAGMENTED BY HASH(id) INTO %d FRAGMENTS",
      fragments)));
  must(db.Execute(StrFormat(
      "CREATE TABLE cust (id INT, name STRING) "
      "FRAGMENTED BY HASH(id) INTO %d FRAGMENTS",
      fragments)));
  for (int base = 0; base < 10'000; base += kBatch) {
    std::string sql = "INSERT INTO cust VALUES ";
    for (int i = 0; i < kBatch; ++i) {
      if (i > 0) sql += ", ";
      sql += StrFormat("(%d, 'c%d')", base + i, base + i);
    }
    must(db.Execute(sql));
  }
  for (int base = 0; base < kRows; base += kBatch) {
    std::string sql = "INSERT INTO orders VALUES ";
    for (int i = 0; i < kBatch; ++i) {
      const int id = base + i;
      if (i > 0) sql += ", ";
      sql += StrFormat("(%d, %d, %d)", id, id % 10'000, (id * 37) % 1000);
    }
    must(db.Execute(sql));
  }

  ShuffleRow row;
  db.runtime().SetMailTap([&row](prisma::pool::Mail& mail) {
    if (mail.kind != prisma::gdh::kMailTupleBatch) return;
    const auto& msg =
        *std::any_cast<std::shared_ptr<prisma::gdh::TupleBatchMsg>>(
            mail.body);
    auto rows = prisma::gdh::TupleBatchRows(msg.rows);
    PRISMA_CHECK_OK(rows.status());
    uint64_t bytes = 16;
    for (const prisma::Tuple& t : *rows) bytes += t.ByteSize();
    row.row_model_bits += prisma::gdh::kControlBits + bytes * 8;
  });
  const uint64_t batches_before =
      db.metrics().CounterTotal("exchange.batches_sent");
  const uint64_t wire_before = db.metrics().CounterTotal("exchange.wire_bits");
  row.ms = static_cast<double>(
               must(db.Execute("SELECT c.name, o.qty FROM orders o "
                               "JOIN cust c ON o.cust = c.id "
                               "WHERE o.qty >= 990"))
                   .response_time_ns) /
           1e6;
  row.batches =
      db.metrics().CounterTotal("exchange.batches_sent") - batches_before;
  row.wire_bits =
      db.metrics().CounterTotal("exchange.wire_bits") - wire_before;
  db.runtime().SetMailTap(nullptr);
  return row;
}

void VectorizedSweep(const std::vector<int>& fragment_sweep) {
  std::printf("E2v: column-framed shuffled join, orders(%d) x "
              "cust(10000), 64 PEs\n",
              g_rows);
  std::printf("%-10s | %10s | %12s %12s | %8s\n", "fragments", "ms",
              "frames Mb", "row-model Mb", "saving");
  for (const int fragments : fragment_sweep) {
    const ShuffleRow row = RunShuffleJoin(fragments);
    // The frames must be strictly smaller than the row encoding of the
    // same rows.
    PRISMA_CHECK(fragments == 1 || row.batches > 0);
    PRISMA_CHECK(row.batches == 0 || row.wire_bits < row.row_model_bits)
        << "column frames did not shrink the wire: " << row.wire_bits
        << " vs " << row.row_model_bits << " in the row encoding";
    const double saving =
        row.row_model_bits == 0
            ? 0.0
            : 1.0 - static_cast<double>(row.wire_bits) /
                        static_cast<double>(row.row_model_bits);
    std::printf("%-10d | %10.2f | %12.3f %12.3f | %7.1f%%\n",
                fragments, row.ms,
                static_cast<double>(row.wire_bits) / 1e6,
                static_cast<double>(row.row_model_bits) / 1e6,
                saving * 100.0);
  }
  std::printf(
      "\nreading: column-encoded frames carry the tuples in fewer bits "
      "than the\nrow encoding — bit-packed null bitmaps and "
      "frame-of-reference integers\ncompress the shuffled payload.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = prisma::bench::SmokeMode(argc, argv);
  if (smoke) g_rows = 2'000;
  if (prisma::bench::HasFlag(argc, argv, "--vectorized")) {
    VectorizedSweep(smoke ? std::vector<int>{2, 4}
                          : std::vector<int>{1, 2, 4, 8, 16, 32});
    return 0;
  }
  if (prisma::bench::HasFlag(argc, argv, "--shuffle")) {
    JoinStrategySweep(smoke ? std::vector<int>{2, 4}
                            : std::vector<int>{1, 2, 4, 8, 16, 32, 48});
    return 0;
  }
  std::printf("E2: fragment-parallel query processing, %d rows, 64 PEs%s\n",
              g_rows, smoke ? " (smoke)" : "");
  std::printf("%-10s | %12s %8s | %12s %8s | %12s %8s | %10s %8s\n",
              "fragments", "select ms", "speedup", "aggregate ms", "speedup",
              "join ms", "speedup", "scanned", "msgs");
  Timings base{0, 0, 0, 0, 0};
  const std::vector<int> fragment_sweep =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8, 16, 32, 48};
  for (const int fragments : fragment_sweep) {
    const Timings t = RunWithFragments(fragments);
    if (base.select_ms == 0) base = t;
    std::printf(
        "%-10d | %12.2f %7.1fx | %12.2f %7.1fx | %12.2f %7.1fx | %10llu "
        "%8llu\n",
        fragments, t.select_ms, base.select_ms / t.select_ms, t.aggregate_ms,
        base.aggregate_ms / t.aggregate_ms, t.join_ms,
        base.join_ms / t.join_ms,
        static_cast<unsigned long long>(t.tuples_scanned),
        static_cast<unsigned long long>(t.messages));
  }
  std::printf(
      "\nreading: near-linear speedup while per-fragment work dominates; "
      "the curve\nflattens (and can turn) when coordination and result "
      "gathering dominate —\nthe coarse-grain tradeoff the paper's §2.4 "
      "discusses.\n");
  return 0;
}
