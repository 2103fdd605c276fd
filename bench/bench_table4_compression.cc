// Reproduces Table 4 (Section 8.2): compression achieved for 1M random
// integers and for meter-collection customer data, against raw text and
// gzip (zlib DEFLATE, the same algorithm) baselines.
//
// Expected shape: Vertica-style sorted+encoded storage beats gzip by 3-6x
// and raw by >10x; the RLE'd metric column collapses to ~KBs.
#include <zlib.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "api/database.h"
#include "common/rng.h"

namespace stratica {
namespace {

uint64_t GzipBytes(const std::string& text) {
  uLongf bound = compressBound(static_cast<uLong>(text.size()));
  std::string out(bound, '\0');
  int rc = compress2(reinterpret_cast<Bytef*>(out.data()), &bound,
                     reinterpret_cast<const Bytef*>(text.data()),
                     static_cast<uLong>(text.size()), 6);
  return rc == Z_OK ? bound : 0;
}

void PrintRow(const char* name, uint64_t bytes, uint64_t raw, uint64_t rows) {
  std::printf("  %-12s %9.1f MB   ratio %5.1fx   %6.2f bytes/row\n", name,
              bytes / 1048576.0, static_cast<double>(raw) / bytes,
              static_cast<double>(bytes) / rows);
}

}  // namespace
}  // namespace stratica

int main() {
  using namespace stratica;
  std::printf("=== Table 4: compression (random integers + meter data) ===\n\n");

  // --- 1M random integers in [1, 10M] (Section 8.2.1) -----------------------
  {
    constexpr int kN = 1000000;
    Rng rng(7);
    std::vector<int64_t> values;
    values.reserve(kN);
    std::string text;
    for (int i = 0; i < kN; ++i) {
      int64_t v = rng.Range(1, 10000000);
      values.push_back(v);
      text += std::to_string(v);
      text.push_back('\n');
    }
    uint64_t raw = text.size();
    uint64_t gz = GzipBytes(text);
    std::vector<int64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    std::string sorted_text;
    for (int64_t v : sorted) {
      sorted_text += std::to_string(v);
      sorted_text.push_back('\n');
    }
    uint64_t gz_sorted = GzipBytes(sorted_text);

    DatabaseOptions opts;
    opts.num_nodes = 1;
    opts.local_segments_per_node = 1;
    Database db(opts);
    (void)db.Execute("CREATE TABLE ints (v INT)");
    RowBlock rows({TypeId::kInt64});
    rows.columns[0].ints = values;
    if (!db.Load("ints", rows, /*direct=*/true).ok()) return 1;
    if (!db.RunTupleMover().ok()) return 1;
    uint64_t vertica = db.cluster()->Census("ints_super").bytes;

    std::printf("1M random integers (paper: raw 7.5MB, gzip 3.6, gzip+sort 2.3, "
                "Vertica 0.6)\n");
    PrintRow("raw", raw, raw, kN);
    PrintRow("gzip", gz, raw, kN);
    PrintRow("gzip+sort", gz_sorted, raw, kN);
    PrintRow("stratica", vertica, raw, kN);
    std::printf("\n");
  }

  // --- meter data (Section 8.2.2), scaled from 200M to 4M rows --------------
  {
    constexpr int kRows = 4000000;
    constexpr int kMetrics = 300;
    constexpr int kMeters = 2000;
    Rng rng(8);

    // Sorted by (metric, meter, time): every meter reports every metric at a
    // regular interval, exactly the paper's collection pattern.
    RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kTimestamp,
                   TypeId::kFloat64});
    std::string csv;
    csv.reserve(static_cast<size_t>(kRows) * 32);
    int readings_per_pair = kRows / (kMetrics * 20);  // spread across meters
    int64_t t0 = 1325376000;  // 2012-01-01 in epoch seconds
    int generated = 0;
    for (int metric = 0; metric < kMetrics && generated < kRows; ++metric) {
      // Each metric is reported by a subset of meters.
      int interval = (metric % 3 == 0) ? 300 : (metric % 3 == 1 ? 600 : 3600);
      for (int meter = metric % 7; meter < kMeters && generated < kRows;
           meter += 7) {
        double value = rng.NextDouble() * 100.0;
        for (int k = 0; k < readings_per_pair && generated < kRows; ++k) {
          int64_t ts = t0 + static_cast<int64_t>(k) * interval;
          // Values trend: mostly small deltas, occasional jumps, many zeros.
          if (metric % 5 == 0) {
            value = 0.0;
          } else if (rng.Uniform(20) == 0) {
            value = rng.NextDouble() * 100.0;
          } else {
            // "Others change gradually with time" (Section 8.2.2).
            value += rng.NextDouble() * 0.1 - 0.05;
          }
          // Meters report fixed-precision readings (the CSV carries two
          // decimals); store the same quantized value.
          value = std::round(value * 100.0) / 100.0;
          rows.columns[0].ints.push_back(metric);
          rows.columns[1].ints.push_back(meter);
          rows.columns[2].ints.push_back(ts * 1000000);
          rows.columns[3].doubles.push_back(value);
          char buf[64];
          int len = std::snprintf(buf, sizeof(buf), "%d,%d,%lld,%.2f\n", metric,
                                  meter, static_cast<long long>(ts), value);
          csv.append(buf, len);
          ++generated;
        }
      }
    }
    uint64_t raw = csv.size();
    uint64_t gz = GzipBytes(csv);

    DatabaseOptions opts;
    opts.num_nodes = 1;
    opts.local_segments_per_node = 1;
    Database db(opts);
    (void)db.Execute(
        "CREATE TABLE meter_data (metric INT, meter INT, collected TIMESTAMP, "
        "value FLOAT)");
    if (!db.Load("meter_data", rows, /*direct=*/true).ok()) return 1;
    if (!db.RunTupleMover().ok()) return 1;
    uint64_t vertica = db.cluster()->Census("meter_data_super").bytes;

    std::printf("meter data, %d rows (paper at 200M rows: raw 6200MB, gzip 1050, "
                "Vertica 418 = 2.2 bytes/row)\n",
                generated);
    PrintRow("raw csv", raw, raw, generated);
    PrintRow("gzip", gz, raw, generated);
    PrintRow("stratica", vertica, raw, generated);

    // Per-column breakdown (Section 8.2.2 discusses each column).
    std::printf("\n  per-column stored sizes:\n");
    auto* ps = db.cluster()->node(0)->GetStorage("meter_data_super");
    uint64_t col_bytes[4] = {0, 0, 0, 0};
    for (const auto& c : ps->Containers()) {
      for (size_t i = 0; i < c->columns.size() && i < 4; ++i) {
        col_bytes[i] += c->columns[i].meta.encoded_bytes;
      }
    }
    const char* names[4] = {"metric", "meter", "collected", "value"};
    for (int i = 0; i < 4; ++i) {
      std::printf("    %-10s %12.3f MB\n", names[i], col_bytes[i] / 1048576.0);
    }
    std::printf("  (paper: metric 5KB via RLE, meter 35MB, timestamps 20MB, "
                "values 363MB of 418MB total)\n");

    // Query time over the compressed store (DESIGN.md §13): the same
    // queries run on the encoded store and on an all-PLAIN twin table
    // holding the same rows in the same sort order, where nothing can run
    // encoded — the decode-first baseline. The RLE'd metric column is the
    // paper's operating argument for Table 4: a predicate plus COUNT over
    // 4M rows touches only ~6000 runs, so compression is a CPU win, not
    // just a storage win. The value aggregate is the honest counterpoint —
    // plain float payloads decode either way, so encoded execution must
    // not slow them down.
    TableDef twin;
    twin.name = "meter_data_plain";
    twin.columns = {{"metric", TypeId::kInt64},
                    {"meter", TypeId::kInt64},
                    {"collected", TypeId::kTimestamp},
                    {"value", TypeId::kFloat64}};
    ProjectionDef twin_proj = MakeDefaultSuperProjection(twin);
    for (auto& c : twin_proj.columns) c.encoding = EncodingId::kPlain;
    if (!db.catalog()->CreateTable(std::move(twin)).ok() ||
        !db.cluster()->CreateProjectionWithBuddies(twin_proj).ok() ||
        !db.Load("meter_data_plain", rows, /*direct=*/true).ok() ||
        !db.RunTupleMover().ok()) {
      return 1;
    }
    struct TimedQuery {
      const char* label;
      const char* head;  // SQL up to the table name
      const char* tail;  // SQL after the table name
    };
    const TimedQuery queries[] = {
        {"RLE predicate + agg",
         "SELECT COUNT(*), SUM(meter), MIN(meter), MAX(meter) FROM ",
         " WHERE metric = 7"},
        {"value aggregate",
         "SELECT metric, COUNT(*), MIN(value), MAX(value) FROM ",
         " GROUP BY metric"},
    };
    const char* tables[2] = {"meter_data_plain", "meter_data"};
    std::printf("\n  query time over the compressed store (%d rows):\n",
                generated);
    for (const auto& tq : queries) {
      double best_ms[2] = {1e30, 1e30};
      for (int encoded = 0; encoded < 2; ++encoded) {
        std::string sql = std::string(tq.head) + tables[encoded] + tq.tail;
        for (int rep = 0; rep < 3; ++rep) {
          auto start = std::chrono::steady_clock::now();
          auto r = db.Execute(sql);
          auto ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
          if (!r.ok()) return 1;
          best_ms[encoded] = std::min(best_ms[encoded], ms);
        }
      }
      std::printf("    %-22s decode-first %8.1f ms   encoded %8.1f ms   "
                  "(%.2fx)\n",
                  tq.label, best_ms[0], best_ms[1], best_ms[0] / best_ms[1]);
    }
  }
  return 0;
}
