#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace stratica {
namespace e2e {

namespace {

constexpr double kRelTolerance = 1e-9;

bool Close(double got, double want) {
  return std::fabs(got - want) <= kRelTolerance * std::max(std::fabs(got), std::fabs(want));
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Expected answer keyed by the first result column (unique in every shape
/// that uses it); the second column is compared exactly when `integral`.
struct KeyedAnswer {
  bool integral = true;
  std::map<int64_t, double> rows;
};

bool CheckKeyed(const KeyedAnswer& want, const QueryResult& r, std::string* why) {
  if (r.rows.NumColumns() != 2) {
    *why = "expected 2 columns, got " + std::to_string(r.rows.NumColumns());
    return false;
  }
  RowBlock rows = r.rows;
  rows.DecodeAll();
  if (rows.NumRows() != want.rows.size()) {
    *why = "expected " + std::to_string(want.rows.size()) + " groups, got " +
           std::to_string(rows.NumRows());
    return false;
  }
  for (size_t i = 0; i < rows.NumRows(); ++i) {
    Value key = rows.columns[0].GetValue(i);
    Value val = rows.columns[1].GetValue(i);
    auto it = key.is_null() ? want.rows.end() : want.rows.find(key.i64());
    if (it == want.rows.end()) {
      *why = "unexpected group " + key.ToString();
      return false;
    }
    bool ok = !val.is_null() && (want.integral ? val.AsDouble() == it->second
                                               : Close(val.AsDouble(), it->second));
    if (!ok) {
      *why = "group " + key.ToString() + ": got " + val.ToString() + ", want " +
             Num(it->second);
      return false;
    }
  }
  return true;
}

// --- Table 3 (C-Store query suite over TPC-H-derived data) -----------------

class Table3Mix : public QueryMix {
 public:
  Table3Mix(std::vector<std::string> sql, std::vector<KeyedAnswer> answers)
      : sql_(std::move(sql)), answers_(std::move(answers)) {}

  int num_shapes() const override { return static_cast<int>(sql_.size()); }

  ReadStmt Make(int shape, Rng*) const override {
    ReadStmt s;
    s.shape = shape;
    s.sql = sql_[shape];
    return s;
  }

  bool Check(const ReadStmt& stmt, const QueryResult& r, std::string* why) const override {
    return CheckKeyed(answers_[stmt.shape], r, why);
  }

 private:
  std::vector<std::string> sql_;
  std::vector<KeyedAnswer> answers_;
};

// --- Meter dashboard (§8.2.2) ------------------------------------------------

class MeterMix : public QueryMix {
 public:
  /// `rows` is the generated block in (metric, meter, collected) order.
  MeterMix(const RowBlock* rows, bool check_answers)
      : rows_(rows), check_answers_(check_answers) {
    avg_.assign(kMeterMetrics * kMeterMeters, 0.0);
    for (int metric = 0; metric < kMeterMetrics; ++metric) {
      std::vector<std::pair<double, int64_t>> by_avg;
      for (int meter = 0; meter < kMeterMeters; ++meter) {
        size_t base = SeriesStart(metric, meter);
        double sum = 0;
        for (int k = 0; k < kMeterReadingsPerDay; ++k) sum += rows_->columns[3].doubles[base + k];
        double avg = sum / kMeterReadingsPerDay;
        avg_[metric * kMeterMeters + meter] = avg;
        by_avg.emplace_back(avg, meter);
      }
      std::sort(by_avg.begin(), by_avg.end(),
                [](const auto& x, const auto& y) { return x.first > y.first; });
      by_avg.resize(5);
      top5_.push_back(std::move(by_avg));
    }
  }

  int num_shapes() const override { return 4; }

  ReadStmt Make(int shape, Rng* rng) const override {
    ReadStmt s;
    s.shape = shape;
    s.a = rng->Range(0, kMeterMetrics - 1);
    s.b = rng->Range(0, kMeterMeters - 1);
    std::string a = std::to_string(s.a), b = std::to_string(s.b);
    switch (shape) {
      case 0:
        s.sql = "SELECT AVG(value) FROM readings WHERE metric = " + a + " AND meter = " + b;
        break;
      case 1:
        s.sql = "SELECT meter, AVG(value) AS avg_v FROM readings WHERE metric = " + a +
                " GROUP BY meter ORDER BY avg_v DESC LIMIT 5";
        break;
      case 2:
        s.sql = "SELECT collected, value FROM readings WHERE metric = " + a +
                " AND meter = " + b + " ORDER BY collected LIMIT 50";
        break;
      default:
        s.sql = "SELECT COUNT(*) FROM readings WHERE metric = " + a;
        break;
    }
    return s;
  }

  bool Check(const ReadStmt& stmt, const QueryResult& r, std::string* why) const override {
    if (!check_answers_) return true;
    RowBlock rows = r.rows;
    rows.DecodeAll();
    auto cell = [&](size_t row, size_t col) { return rows.columns[col].GetValue(row); };
    auto expect_rows = [&](size_t n, size_t cols) {
      if (rows.NumRows() == n && rows.NumColumns() == cols) return true;
      *why = "expected " + std::to_string(n) + "x" + std::to_string(cols) + " result, got " +
             std::to_string(rows.NumRows()) + "x" + std::to_string(rows.NumColumns());
      return false;
    };
    switch (stmt.shape) {
      case 0: {
        if (!expect_rows(1, 1)) return false;
        double want = avg_[stmt.a * kMeterMeters + stmt.b];
        Value got = cell(0, 0);
        if (got.is_null() || !Close(got.AsDouble(), want)) {
          *why = "avg: got " + got.ToString() + ", want " + Num(want);
          return false;
        }
        return true;
      }
      case 1: {
        if (!expect_rows(5, 2)) return false;
        const auto& want = top5_[stmt.a];
        for (size_t i = 0; i < 5; ++i) {
          Value meter = cell(i, 0), avg = cell(i, 1);
          if (meter.is_null() || avg.is_null() || meter.i64() != want[i].second ||
              !Close(avg.AsDouble(), want[i].first)) {
            *why = "top5 rank " + std::to_string(i) + ": got (" + meter.ToString() + ", " +
                   avg.ToString() + "), want (" + std::to_string(want[i].second) + ", " +
                   Num(want[i].first) + ")";
            return false;
          }
        }
        return true;
      }
      case 2: {
        if (!expect_rows(50, 2)) return false;
        size_t base = SeriesStart(stmt.a, stmt.b);
        for (size_t i = 0; i < 50; ++i) {
          Value ts = cell(i, 0), v = cell(i, 1);
          if (ts.is_null() || v.is_null() || ts.i64() != rows_->columns[2].ints[base + i] ||
              v.f64() != rows_->columns[3].doubles[base + i]) {
            *why = "series row " + std::to_string(i) + " differs";
            return false;
          }
        }
        return true;
      }
      default: {
        if (!expect_rows(1, 1)) return false;
        Value got = cell(0, 0);
        if (got.is_null() || got.i64() != kMeterMeters * kMeterReadingsPerDay) {
          *why = "count: got " + got.ToString();
          return false;
        }
        return true;
      }
    }
  }

 private:
  static size_t SeriesStart(int64_t metric, int64_t meter) {
    return static_cast<size_t>((metric * kMeterMeters + meter) * kMeterReadingsPerDay);
  }

  const RowBlock* rows_;
  bool check_answers_;
  std::vector<double> avg_;
  std::vector<std::vector<std::pair<double, int64_t>>> top5_;
};

}  // namespace

Result<WorkloadId> ParseWorkload(const std::string& name) {
  for (WorkloadId id : {WorkloadId::kTable3Joins, WorkloadId::kMeterDashboard,
                        WorkloadId::kCluster4Io, WorkloadId::kMeterIngest}) {
    if (name == WorkloadName(id)) return id;
  }
  return Status::InvalidArgument("unknown workload: " + name);
}

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kTable3Joins: return "table3_joins";
    case WorkloadId::kMeterDashboard: return "meter_dashboard";
    case WorkloadId::kCluster4Io: return "cluster4_io";
    case WorkloadId::kMeterIngest: return "meter_ingest";
  }
  return "?";
}

ReadStmt Deck::Next() {
  if (pos_ == order_.size()) {
    order_.resize(mix_->num_shapes());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
    for (size_t i = order_.size(); i > 1; --i) std::swap(order_[i - 1], order_[rng_.Uniform(i)]);
    pos_ = 0;
  }
  return mix_->Make(order_[pos_++], &rng_);
}

int64_t MeterT0() { return MakeDate(2012, 6, 1) * 86400LL * 1000000LL; }

uint64_t Dataset::LogicalRows() const {
  uint64_t n = 0;
  for (const auto& t : tables) n += t.rows.NumRows();
  return n;
}

uint64_t Dataset::RawBytes() const {
  uint64_t n = 0;
  for (const auto& t : tables) n += t.rows.NumRows() * t.rows.NumColumns() * 8;
  return n;
}

Dataset MakeTable3(uint64_t seed, int lineitem_rows) {
  const int orders_n = lineitem_rows / 4;
  const int customers_n = orders_n / 10;
  constexpr int kSuppliers = 500;
  constexpr int kNations = 25;

  Dataset data;
  data.tables.push_back({"lineitem",
                         "CREATE TABLE lineitem (l_shipdate DATE, l_suppkey INT, "
                         "l_orderkey INT, l_extendedprice FLOAT)",
                         RowBlock({TypeId::kDate, TypeId::kInt64, TypeId::kInt64,
                                   TypeId::kFloat64})});
  data.tables.push_back({"orders",
                         "CREATE TABLE orders (o_orderdate DATE, o_orderkey INT, "
                         "o_custkey INT)",
                         RowBlock({TypeId::kDate, TypeId::kInt64, TypeId::kInt64})});
  data.tables.push_back({"customer", "CREATE TABLE customer (c_custkey INT, c_nationkey INT)",
                         RowBlock({TypeId::kInt64, TypeId::kInt64})});
  RowBlock& lineitem = data.tables[0].rows;
  RowBlock& orders = data.tables[1].rows;
  RowBlock& customer = data.tables[2].rows;

  Rng rng(DeriveSeed(seed, kStreamData));
  const int64_t base = MakeDate(1992, 1, 1);
  const int64_t span = MakeDate(1998, 12, 31) - base;
  for (int o = 0; o < orders_n; ++o) {
    orders.columns[0].ints.push_back(base + rng.Range(0, span));
    orders.columns[1].ints.push_back(o);
    orders.columns[2].ints.push_back(rng.Range(0, customers_n - 1));
  }
  for (int l = 0; l < lineitem_rows; ++l) {
    int64_t order = rng.Range(0, orders_n - 1);
    lineitem.columns[0].ints.push_back(orders.columns[0].ints[order] + rng.Range(1, 90));
    lineitem.columns[1].ints.push_back(rng.Range(0, kSuppliers - 1));
    lineitem.columns[2].ints.push_back(order);
    lineitem.columns[3].doubles.push_back(900.0 + rng.NextDouble() * 104000.0);
  }
  for (int c = 0; c < customers_n; ++c) {
    customer.columns[0].ints.push_back(c);
    customer.columns[1].ints.push_back(rng.Range(0, kNations - 1));
  }

  // Shipdate/orderdate midpoint: the range predicates keep about half.
  const int64_t d = base + span / 2;
  const std::string lit = "DATE '" + FormatDate(d) + "'";
  const std::string join = " FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE ";
  std::vector<std::string> sql = {
      "SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > " + lit +
          " GROUP BY l_shipdate",
      "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = " + lit +
          " GROUP BY l_suppkey",
      "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > " + lit +
          " GROUP BY l_suppkey",
      "SELECT l_shipdate, COUNT(*)" + join + "o_orderdate > " + lit + " GROUP BY l_shipdate",
      "SELECT l_suppkey, COUNT(*)" + join + "o_orderdate = " + lit + " GROUP BY l_suppkey",
      "SELECT l_suppkey, COUNT(*)" + join + "o_orderdate > " + lit + " GROUP BY l_suppkey",
      "SELECT c_nationkey, SUM(l_extendedprice) FROM lineitem "
      "JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey "
      "WHERE o_orderdate > " + lit + " GROUP BY c_nationkey",
  };

  std::vector<KeyedAnswer> answers(7);
  answers[6].integral = false;
  const auto& ship = lineitem.columns[0].ints;
  const auto& supp = lineitem.columns[1].ints;
  const auto& okey = lineitem.columns[2].ints;
  const auto& price = lineitem.columns[3].doubles;
  const auto& odate = orders.columns[0].ints;
  const auto& ocust = orders.columns[2].ints;
  const auto& nation = customer.columns[1].ints;
  for (size_t l = 0; l < ship.size(); ++l) {
    if (ship[l] > d) ++answers[0].rows[ship[l]];
    if (ship[l] == d) ++answers[1].rows[supp[l]];
    if (ship[l] > d) ++answers[2].rows[supp[l]];
    int64_t od = odate[okey[l]];
    if (od > d) ++answers[3].rows[ship[l]];
    if (od == d) ++answers[4].rows[supp[l]];
    if (od > d) ++answers[5].rows[supp[l]];
    if (od > d) answers[6].rows[nation[ocust[okey[l]]]] += price[l];
  }
  data.mix = std::make_unique<Table3Mix>(std::move(sql), std::move(answers));
  return data;
}

Dataset MakeMeter(uint64_t seed, bool check_answers) {
  Dataset data;
  data.tables.push_back({"readings",
                         "CREATE TABLE readings (metric INT, meter INT, collected TIMESTAMP, "
                         "value FLOAT)",
                         RowBlock({TypeId::kInt64, TypeId::kInt64, TypeId::kTimestamp,
                                   TypeId::kFloat64})});
  RowBlock& rows = data.tables[0].rows;
  const size_t n = static_cast<size_t>(kMeterMetrics) * kMeterMeters * kMeterReadingsPerDay;
  for (auto& c : rows.columns) c.Reserve(n);
  Rng rng(DeriveSeed(seed, kStreamData));
  const int64_t t0 = MeterT0();
  // Readings drift gradually ("others change gradually with time", §8.2.2)
  // and carry two decimals, like the meters' CSV feed.
  for (int metric = 0; metric < kMeterMetrics; ++metric) {
    for (int meter = 0; meter < kMeterMeters; ++meter) {
      double value = 50 + rng.NextDouble() * 10;
      for (int k = 0; k < kMeterReadingsPerDay; ++k) {
        value += rng.NextDouble() - 0.5;
        rows.columns[0].ints.push_back(metric);
        rows.columns[1].ints.push_back(meter);
        rows.columns[2].ints.push_back(t0 + k * kMeterIntervalUs);
        rows.columns[3].doubles.push_back(std::round(value * 100.0) / 100.0);
      }
    }
  }
  data.mix = std::make_unique<MeterMix>(&rows, check_answers);
  return data;
}

RowBlock MakeMeterBatch(int64_t k, Rng* rng) {
  constexpr int kMetersPerBatch = 25;
  RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kTimestamp, TypeId::kFloat64});
  const int64_t ts = MeterT0() + (kMeterReadingsPerDay + k / 4) * kMeterIntervalUs;
  const int first_meter = static_cast<int>(k % 4) * kMetersPerBatch;
  for (int metric = 0; metric < kMeterMetrics; ++metric) {
    for (int meter = first_meter; meter < first_meter + kMetersPerBatch; ++meter) {
      rows.columns[0].ints.push_back(metric);
      rows.columns[1].ints.push_back(meter);
      rows.columns[2].ints.push_back(ts);
      rows.columns[3].doubles.push_back(std::round((50 + rng->NextDouble() * 10) * 100.0) /
                                        100.0);
    }
  }
  return rows;
}

}  // namespace e2e
}  // namespace stratica
