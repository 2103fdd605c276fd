// Workload definitions for bench_e2e: seeded data generators, the read
// statement mixes, and the answer oracle that checks every result against
// values computed from the generated rows with plain C++ containers.
//
// The engine only ever sees the generated statements and rows; everything
// here is bench-side.
#ifndef STRATICA_BENCH_E2E_WORKLOADS_H_
#define STRATICA_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/rng.h"

namespace stratica {
namespace e2e {

enum class WorkloadId { kTable3Joins, kMeterDashboard, kCluster4Io, kMeterIngest };

/// Parses a workload name as used on the command line and in BENCHMARK.json.
Result<WorkloadId> ParseWorkload(const std::string& name);
const char* WorkloadName(WorkloadId id);

/// Stream ids fed to DeriveSeed next to the client ids 0..3, so every
/// generator draws from its own independent sequence.
enum SeedStream : uint64_t {
  kStreamData = 1000,
  kStreamLoader = 1001,
  kStreamFaultFs = 1002,
};

/// One table of the workload: its DDL and the rows loaded at set-up.
struct TableData {
  std::string name;
  std::string ddl;
  RowBlock rows;
};

/// One generated read statement. `shape` indexes the mix's shapes; `a`/`b`
/// are its parameters (unused by fixed-parameter shapes).
struct ReadStmt {
  int shape = 0;
  int64_t a = 0;
  int64_t b = 0;
  std::string sql;
};

/// \brief A read-statement mix: draws statements and checks their answers.
class QueryMix {
 public:
  virtual ~QueryMix() = default;
  virtual int num_shapes() const = 0;
  /// Builds a statement of `shape` with parameters drawn from `rng`.
  virtual ReadStmt Make(int shape, Rng* rng) const = 0;
  /// True when `result` is the exact answer for `stmt` (integers exact,
  /// SUM/AVG within 1e-9 relative). `why` receives the first difference.
  virtual bool Check(const ReadStmt& stmt, const QueryResult& result,
                     std::string* why) const = 0;
};

/// \brief Per-client statement stream: shapes are dealt from a deck that is
/// reshuffled each round, so every run of N statements holds each shape
/// N/num_shapes times (uniform draws, without the mix wander of iid picks).
class Deck {
 public:
  Deck(const QueryMix* mix, uint64_t seed) : mix_(mix), rng_(seed) {}
  ReadStmt Next();

 private:
  const QueryMix* mix_;
  Rng rng_;
  std::vector<int> order_;
  size_t pos_ = 0;
};

/// Meter schema constants (§8.2.2 scaled): readings every 5 minutes.
constexpr int kMeterMetrics = 40;
constexpr int kMeterMeters = 100;
constexpr int kMeterReadingsPerDay = 288;
constexpr int64_t kMeterIntervalUs = 300LL * 1000000LL;
int64_t MeterT0();

/// \brief Everything a workload needs before the database exists.
struct Dataset {
  std::vector<TableData> tables;
  std::unique_ptr<QueryMix> mix;
  uint64_t LogicalRows() const;
  /// Σ 8 bytes per loaded value — the "raw" input size.
  uint64_t RawBytes() const;
};

/// Table 3 data (lineitem/orders/customer) at `lineitem_rows`, with the
/// Q1–Q7 mix and its precomputed answers.
Dataset MakeTable3(uint64_t seed, int lineitem_rows);
/// Meter readings, sorted (metric, meter, collected), with the four-shape
/// dashboard mix. `check_answers` is false when concurrent writes change
/// the data under the readers (meter_ingest).
Dataset MakeMeter(uint64_t seed, bool check_answers);

/// The 1000-row trickle batch number `k` of meter_ingest: one new 5-minute
/// interval for 25 meters × 40 metrics (four batches cover one interval).
RowBlock MakeMeterBatch(int64_t k, Rng* rng);

}  // namespace e2e
}  // namespace stratica

#endif  // STRATICA_BENCH_E2E_WORKLOADS_H_
