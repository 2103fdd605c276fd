// bench_e2e: the repository's end-to-end benchmark program.
//
// Runs one workload through the public API only (Database::Execute, Load,
// RunTupleMover) and prints one JSON object on stdout: the end-to-end
// metrics, ungated extras, and — with --trace 1 — the per-layer breakdown
// measured from outside the engine. bench/e2e/run.py builds this binary,
// runs it, and turns its JSON into the benchmark's report; see
// bench/e2e/README.md for the workloads and metrics.
//
//   bench_e2e --workload table3_joins --seed 20120821 --seconds 20
//             [--trace 0|1] [--setup-only]
//
// A traced run writes its spans to trace-<workload>.jsonl in the working
// directory.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "common/fault_fs.h"
#include "trace.h"
#include "workloads.h"

namespace stratica {
namespace e2e {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kWarmupS = 3;  ///< unmeasured client time before the window
constexpr int kSetups = 3;      ///< setup_s is the median of this many set-ups
/// read_p95_ms needs at least 50 samples beyond it. The window runs past
/// --seconds (up to twice it) until this many reads are done; fewer make the
/// run incorrect.
constexpr size_t kMinReads = 1000;

struct Args {
  WorkloadId workload = WorkloadId::kTable3Joins;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool setup_only = false;
};

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--setup-only]\n",
               msg.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      auto id = ParseWorkload(value);
      if (!id.ok()) Usage(id.status().ToString());
      args.workload = id.value();
      have_workload = true;
      continue;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end == nullptr || *end != '\0') Usage("bad value for " + flag + ": " + value);
  }
  if (!have_workload || !have_seed) Usage("--workload and --seed are required");
  if (!args.setup_only && args.seconds <= 0) Usage("--seconds must be positive");
  return args;
}

/// How a workload runs: the database it gets and the clients it drives.
struct Config {
  DatabaseOptions db;
  bool device_model = false;  ///< FaultFs read-latency model under the DB
  int readers = 0;            ///< closed-loop read clients
  bool ingest = false;        ///< open-loop loader + closed-loop deleter
};

Config MakeConfig(WorkloadId w) {
  Config cfg;
  cfg.db.worker_threads = 4;
  cfg.db.local_segments_per_node = 1;
  switch (w) {
    case WorkloadId::kTable3Joins:
      cfg.readers = 2;
      break;
    case WorkloadId::kMeterDashboard:
      cfg.readers = 4;
      break;
    case WorkloadId::kCluster4Io:
      cfg.db.num_nodes = 4;
      cfg.db.k_safety = 1;
      cfg.device_model = true;
      cfg.readers = 4;
      break;
    case WorkloadId::kMeterIngest:
      cfg.db.tuple_mover_interval_ms = 200;
      cfg.readers = 2;
      cfg.ingest = true;
      break;
  }
  return cfg;
}

Dataset MakeData(WorkloadId w, uint64_t seed) {
  switch (w) {
    case WorkloadId::kTable3Joins: return MakeTable3(seed, 600000);
    case WorkloadId::kCluster4Io: return MakeTable3(seed, 300000);
    case WorkloadId::kMeterDashboard: return MakeMeter(seed, /*check_answers=*/true);
    case WorkloadId::kMeterIngest: return MakeMeter(seed, /*check_answers=*/false);
  }
  return {};
}

/// One database with its storage stack. Members are destroyed in reverse
/// order, so the database goes before the file systems under it.
struct Instance {
  std::shared_ptr<MemFileSystem> mem;
  std::shared_ptr<FaultFs> fault;
  std::shared_ptr<TimingFs> timing;  ///< traced runs only
  std::unique_ptr<Database> db;
};

std::unique_ptr<Instance> MakeInstance(const Config& cfg, const Args& args) {
  auto inst = std::make_unique<Instance>();
  inst->mem = std::make_shared<MemFileSystem>();
  std::shared_ptr<FileSystem> top = inst->mem;
  FileSystem* base = inst->mem.get();
  if (cfg.device_model) {
    // The device model of SNIPPETS.md snippet 1: 200 µs per read, plus
    // bytes at 256 MiB/s, plus U[0, 50 µs) jitter.
    inst->fault = std::make_shared<FaultFs>(base, DeriveSeed(args.seed, kStreamFaultFs));
    FaultRule rule;
    rule.op_mask = kFaultRead;
    rule.kind = FaultKind::kLatency;
    rule.latency_us = 200;
    rule.bytes_per_sec = 256ull << 20;
    rule.jitter_us = 50;
    inst->fault->AddRule(rule);
    base = inst->fault.get();
    top = inst->fault;
  }
  if (args.trace) {
    inst->timing = std::make_shared<TimingFs>(base);
    top = inst->timing;
  }
  DatabaseOptions opts = cfg.db;
  opts.fs = top;
  inst->db = std::make_unique<Database>(opts);
  return inst;
}

void Fail(const std::string& what, const Status& st) {
  std::fprintf(stderr, "bench_e2e: %s: %s\n", what.c_str(), st.ToString().c_str());
  std::exit(1);
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Current resident set size.
double RssMb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / kMiB;
}

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Set-up phase timings of one fresh database.
struct SetupTimes {
  double total_s = 0;  ///< construction + DDL + Load + RunTupleMover
  double load_s = 0;   ///< the Load calls alone
  double tm_s = 0;     ///< the RunTupleMover call alone
};

/// Builds a fresh database into `*out` and loads `data` into it.
SetupTimes SetUp(const Config& cfg, const Args& args, const Dataset& data,
                 std::unique_ptr<Instance>* out) {
  using Clock = std::chrono::steady_clock;
  auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  SetupTimes t;
  auto start = Clock::now();
  *out = MakeInstance(cfg, args);
  Database* db = (*out)->db.get();
  for (const auto& table : data.tables) {
    auto r = db->Execute(table.ddl);
    if (!r.ok()) Fail("create " + table.name, r.status());
  }
  for (const auto& table : data.tables) {
    auto l0 = Clock::now();
    auto r = db->Load(table.name, table.rows, /*direct=*/true);
    if (!r.ok()) Fail("load " + table.name, r.status());
    t.load_s += secs(l0, Clock::now());
  }
  auto m0 = Clock::now();
  Status st = db->RunTupleMover();
  if (!st.ok()) Fail("tuple mover", st);
  auto end = Clock::now();
  t.tm_s = secs(m0, end);
  t.total_s = secs(start, end);
  return t;
}

// --- clients -----------------------------------------------------------------

struct Sample {
  uint64_t end_ns = 0;
  double ms = 0;       ///< the Execute (or Load) call; loads: lag behind due time
  double span_ms = 0;  ///< traced statements: bench front end + Execute
  bool traced = false;
};

/// What one client thread saw. Owned by the main thread, written only by
/// its client until joined.
struct ClientLog {
  std::vector<Sample> reads, deletes, loads;  ///< loads: lag behind due time
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;  ///< admission timeouts (also counted in errors)
  uint64_t wrong = 0;
  uint64_t rows_loaded = 0;
  uint64_t rows_deleted = 0;
  std::string first_problem;
  // Traced-slice layer timings taken around the bench's own calls.
  double parse_ns = 0, plan_ns = 0;
  uint64_t parsed = 0, planned = 0, bypasses = 0;
  double fanout_sum = 0, est_mem_sum = 0;

  void Problem(const std::string& what) {
    if (first_problem.empty()) first_problem = what;
  }
  void Error(const Status& st, const std::string& sql) {
    ++errors;
    if (st.code() == StatusCode::kResourceExhausted) ++timeouts;
    Problem(st.ToString() + " in: " + sql);
  }
};

struct Shared {
  Database* db = nullptr;
  const QueryMix* mix = nullptr;
  size_t fanout = 1;
  uint64_t seed = 0;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};  ///< read statements completed
};

Span MakeSpan(uint64_t trace_id, uint64_t parent, const char* name, uint64_t start,
              uint64_t end) {
  Span s;
  s.trace_id = trace_id;
  s.span_id = tracer::NextId();
  s.parent_id = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

/// Times ParseSql (and, for SELECT, PlanSelect on a bench-owned planner at
/// the database's fan-out) ahead of Execute, recording child spans of
/// `stmt_id`. The engine parses and plans again inside Execute.
void TraceFrontEnd(const std::string& sql, uint64_t stmt_id, Planner* planner,
                   size_t fanout, ClientLog* log) {
  uint64_t p0 = tracer::NowNs();
  auto parsed = ParseSql(sql);
  uint64_t p1 = tracer::NowNs();
  log->parse_ns += static_cast<double>(p1 - p0);
  ++log->parsed;
  tracer::Record(MakeSpan(stmt_id, stmt_id, "sql.parse", p0, p1));
  if (!parsed.ok() || parsed.value().type != Statement::Type::kSelect) return;
  auto plan = planner->PlanSelect(parsed.value().select, fanout);
  uint64_t p2 = tracer::NowNs();
  if (!plan.ok()) return;
  log->plan_ns += static_cast<double>(p2 - p1);
  ++log->planned;
  log->fanout_sum += static_cast<double>(plan.value().fanout);
  log->est_mem_sum += static_cast<double>(plan.value().estimated_memory_bytes);
  if (plan.value().morsel_bypass) ++log->bypasses;
  tracer::Record(MakeSpan(stmt_id, stmt_id, "opt.plan", p1, p2));
}

/// Runs `sql` through Execute, timing it and tracing it when the current
/// slice is traced. Returns the result (errors are logged here).
Result<QueryResult> RunStatement(Shared* sh, const std::string& sql, Planner* planner,
                                 ClientLog* log, std::vector<Sample>* samples) {
  bool traced = tracer::Enabled();
  uint64_t stmt_id = traced ? tracer::NextId() : 0;
  uint64_t begin = tracer::NowNs();
  if (traced) TraceFrontEnd(sql, stmt_id, planner, sh->fanout, log);
  uint64_t t0 = tracer::NowNs();
  auto r = sh->db->Execute(sql);
  uint64_t t1 = tracer::NowNs();
  ++log->attempted;
  samples->push_back({t1, static_cast<double>(t1 - t0) / 1e6,
                      traced ? static_cast<double>(t1 - begin) / 1e6 : 0.0, traced});
  if (traced) {
    tracer::Record(MakeSpan(stmt_id, stmt_id, "execute", t0, t1));
    Span root = MakeSpan(stmt_id, 0, "statement", begin, t1);
    root.span_id = stmt_id;
    tracer::Record(root);
  }
  if (!r.ok()) log->Error(r.status(), sql);
  return r;
}

void ReaderLoop(Shared* sh, int client, ClientLog* log) {
  Deck deck(sh->mix, DeriveSeed(sh->seed, client));
  Planner planner(sh->db->cluster());
  while (!sh->stop.load(std::memory_order_relaxed)) {
    ReadStmt stmt = deck.Next();
    auto r = RunStatement(sh, stmt.sql, &planner, log, &log->reads);
    sh->reads.fetch_add(1, std::memory_order_relaxed);
    std::string why;
    if (r.ok() && !sh->mix->Check(stmt, r.value(), &why)) {
      ++log->wrong;
      log->Problem("wrong answer (" + why + ") for: " + stmt.sql);
    }
  }
}

void DeleterLoop(Shared* sh, int client, ClientLog* log) {
  Rng rng(DeriveSeed(sh->seed, client));
  Planner planner(sh->db->cluster());
  while (!sh->stop.load(std::memory_order_relaxed)) {
    std::string sql = "DELETE FROM readings WHERE metric = " +
                      std::to_string(rng.Range(0, kMeterMetrics - 1)) +
                      " AND meter = " + std::to_string(rng.Range(0, kMeterMeters - 1));
    auto r = RunStatement(sh, sql, &planner, log, &log->deletes);
    if (r.ok()) log->rows_deleted += r.value().affected_rows;
  }
}

/// Open loop: batch k is due at start + k × 50 ms whether or not earlier
/// batches have finished; each batch's lag is measured from its due time.
void LoaderLoop(Shared* sh, uint64_t start_ns, ClientLog* log) {
  constexpr uint64_t kPeriodNs = 50ull * 1000 * 1000;
  Rng rng(DeriveSeed(sh->seed, kStreamLoader));
  for (int64_t k = 0; !sh->stop.load(std::memory_order_relaxed); ++k) {
    RowBlock batch = MakeMeterBatch(k, &rng);
    uint64_t due = start_ns + static_cast<uint64_t>(k) * kPeriodNs;
    uint64_t now = tracer::NowNs();
    if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    if (sh->stop.load(std::memory_order_relaxed)) break;
    bool traced = tracer::Enabled();
    uint64_t t0 = tracer::NowNs();
    auto r = sh->db->Load("readings", batch);
    uint64_t t1 = tracer::NowNs();
    ++log->attempted;
    log->loads.push_back({t1, static_cast<double>(t1 - due) / 1e6, 0.0, traced});
    if (traced) tracer::Record(MakeSpan(tracer::NextId(), 0, "load", t0, t1));
    if (r.ok()) {
      log->rows_loaded += r.value().rows_loaded;
    } else {
      log->Error(r.status(), "Load(readings)");
    }
  }
}

// --- counters ----------------------------------------------------------------

/// Cumulative engine counters at one instant (window deltas are taken
/// between two of these).
struct Snapshot {
  uint64_t t_ns = 0;
  double cpu_s = 0;
  std::map<std::string, double> v;
};

Snapshot Take(Instance* inst) {
  Snapshot s;
  s.t_ns = tracer::NowNs();
  s.cpu_s = CpuSeconds();
  Database* db = inst->db.get();
  const ExecStats& e = *db->stats();
  auto& v = s.v;
  v["rows_scanned"] = e.rows_scanned.load();
  v["blocks_pruned"] = e.blocks_pruned.load();
  v["rows_decoded"] = e.rows_decoded.load();
  v["rows_encoded"] = e.rows_processed_encoded.load();
  v["decode_elided_bytes"] = e.decode_elided_bytes.load();
  v["rows_sip_filtered"] = e.rows_sip_filtered.load();
  v["topk_rows_pruned"] = e.topk_rows_pruned.load();
  v["rows_spilled"] = e.rows_spilled.load();
  v["morsel_bypasses"] = e.morsel_bypasses.load();
  v["io_retries"] = e.io_retries.load();
  v["reads_failed_over"] = e.reads_failed_over.load();
  v["exchange_bytes"] = e.exchange_bytes.load();
  v["exchange_hedges"] = e.exchange_hedges.load();
  v["exchange_reroutes"] = e.exchange_reroutes.load();
  const Scheduler::Stats& sc = db->scheduler()->stats();
  v["tasks_run"] = sc.tasks_run.load();
  v["tasks_stolen"] = sc.tasks_stolen.load();
  v["tasks_inline"] = sc.tasks_inline.load();
  v["pinned_started"] = sc.pinned_started.load();
  v["pinned_reused"] = sc.pinned_reused.load();
  ResourceManagerStats rm = db->resource_manager()->stats();
  v["admitted"] = rm.admitted;
  v["queued"] = rm.queued;
  v["timeouts"] = rm.timeouts;
  v["peak_active"] = rm.peak_active_queries;
  v["peak_reserved"] = rm.peak_reserved_bytes;
  v["network_bytes"] = db->cluster()->network_bytes();
  if (inst->timing) {
    const TimingFs::Counters& c = inst->timing->counters();
    v["fs_read_ops"] = c.read_ops.load();
    v["fs_read_bytes"] = c.read_bytes.load();
    v["fs_read_ns"] = c.read_ns.load();
    v["fs_write_bytes"] = c.write_bytes.load();
  }
  return s;
}

/// Census over every projection, buddies included.
Cluster::StorageCensus Census(Database* db) {
  Cluster::StorageCensus t;
  for (const std::string& p : db->catalog()->ProjectionNames()) {
    auto c = db->cluster()->Census(p);
    t.containers += c.containers;
    t.bytes += c.bytes;
    t.raw_bytes += c.raw_bytes;
    t.rows += c.rows;
  }
  return t;
}

/// Tuple-mover totals over every node. The stats are not synchronized, so
/// call only once the background mover has stopped (or never ran).
TupleMoverStats MoverTotals(Database* db) {
  TupleMoverStats t;
  for (uint32_t i = 0; i < db->cluster()->num_nodes(); ++i) {
    const TupleMoverStats& s = db->cluster()->node(i)->mover()->stats();
    t.moveouts += s.moveouts;
    t.mergeouts += s.mergeouts;
    t.rows_merged += s.rows_merged;
    t.rows_purged += s.rows_purged;
    t.stale_applies += s.stale_applies;
  }
  return t;
}

// --- output ------------------------------------------------------------------

/// Flat JSON object writer for the single result line.
class JsonOut {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    Raw(key, q + "\"");
  }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Object(const std::string& key, const std::map<std::string, double>& m) {
    JsonOut inner;
    for (const auto& [k, v] : m) inner.Num(k, v);
    Raw(key, inner.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
  }
  std::string body_;
};

std::vector<Sample> InWindow(const std::vector<const ClientLog*>& logs,
                             std::vector<Sample> ClientLog::*field, uint64_t w0, uint64_t w1) {
  std::vector<Sample> out;
  for (const ClientLog* log : logs) {
    for (const Sample& s : log->*field) {
      if (s.end_ns >= w0 && s.end_ns <= w1) out.push_back(s);
    }
  }
  return out;
}

std::vector<double> Millis(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) out.push_back(s.ms);
  return out;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  Config cfg = MakeConfig(args.workload);
  Dataset data = MakeData(args.workload, args.seed);

  // The measured database is the process's first, so every run starts it
  // from the same fresh heap; the extra set-ups that make setup_s a median
  // run after the measured window.
  std::unique_ptr<Instance> inst;
  std::vector<SetupTimes> setups{SetUp(cfg, args, data, &inst)};
  Database* db = inst->db.get();

  ClientLog checks;  // set-up row counts and the final ingest oracle
  for (const auto& table : data.tables) {
    auto r = db->Execute("SELECT COUNT(*) FROM " + table.name);
    ++checks.attempted;
    if (!r.ok()) {
      checks.Error(r.status(), "COUNT " + table.name);
    } else if (r.value().At(0, 0).i64() != static_cast<int64_t>(table.rows.NumRows())) {
      ++checks.wrong;
      checks.Problem("set-up row count of " + table.name + " is " +
                     r.value().At(0, 0).ToString());
    }
  }
  Cluster::StorageCensus after_setup = Census(db);
  double bytes_per_row =
      static_cast<double>(after_setup.bytes) / static_cast<double>(data.LogicalRows());

  JsonOut out;
  out.Str("workload", WorkloadName(args.workload));
  out.Num("seed", static_cast<double>(args.seed));
  out.Num("setup_rows", static_cast<double>(after_setup.rows));
  out.Num("logical_rows", static_cast<double>(data.LogicalRows()));
  if (args.setup_only) {
    out.Num("bytes_per_row", bytes_per_row);
    out.Bool("correct", checks.errors + checks.wrong == 0);
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  // --- clients: warm-up, then the measured window ----------------------------
  Shared sh;
  sh.db = db;
  sh.mix = data.mix.get();
  sh.fanout = cfg.db.intra_node_parallelism;
  sh.seed = args.seed;
  std::vector<std::unique_ptr<ClientLog>> logs;
  std::vector<std::thread> threads;
  uint64_t start_ns = tracer::NowNs();
  for (int c = 0; c < cfg.readers; ++c) {
    logs.push_back(std::make_unique<ClientLog>());
    threads.emplace_back(ReaderLoop, &sh, c, logs.back().get());
  }
  ClientLog* loader = nullptr;
  ClientLog* deleter = nullptr;
  if (cfg.ingest) {
    logs.push_back(std::make_unique<ClientLog>());
    deleter = logs.back().get();
    threads.emplace_back(DeleterLoop, &sh, cfg.readers, deleter);
    logs.push_back(std::make_unique<ClientLog>());
    loader = logs.back().get();
    threads.emplace_back(LoaderLoop, &sh, start_ns, loader);
  }
  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  sleep_s(kWarmupS);
  Snapshot s0 = Take(inst.get());
  const uint64_t reads0 = sh.reads.load();
  const uint64_t w_end = s0.t_ns + static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t w_cap = s0.t_ns + static_cast<uint64_t>(2 * args.seconds * 1e9);
  // Sample RSS every tick. Traced runs alternate traced and untraced
  // 0.5 s slices, so trace_overhead_pct compares statements from the same
  // stretch of the run.
  constexpr double kTickS = 0.1;
  constexpr int kTicksPerSlice = 5;
  std::vector<double> rss;
  for (int tick = 0;; ++tick) {
    uint64_t now = tracer::NowNs();
    if (now >= w_cap || (now >= w_end && sh.reads.load() - reads0 >= kMinReads)) break;
    if (args.trace && tick % kTicksPerSlice == 0) {
      tracer::SetEnabled((tick / kTicksPerSlice) % 2 == 0);
    }
    rss.push_back(RssMb());
    sleep_s(std::min(kTickS, Seconds((now < w_end ? w_end : w_cap) - now)));
  }
  tracer::SetEnabled(false);
  Snapshot s1 = Take(inst.get());
  sh.stop.store(true);
  for (auto& t : threads) t.join();

  if (cfg.ingest) {
    // Ingest oracle: after a final mover pass, every committed load and
    // delete must be reflected exactly in COUNT(*).
    db->StopBackgroundTupleMover();
    Status st = db->RunTupleMover();
    ++checks.attempted;
    if (!st.ok()) checks.Error(st, "final RunTupleMover");
    auto r = db->Execute("SELECT COUNT(*) FROM readings");
    ++checks.attempted;
    int64_t want = static_cast<int64_t>(data.LogicalRows() + loader->rows_loaded -
                                        deleter->rows_deleted);
    if (!r.ok()) {
      checks.Error(r.status(), "final COUNT");
    } else if (r.value().At(0, 0).i64() != want) {
      ++checks.wrong;
      checks.Problem("final COUNT(*) " + r.value().At(0, 0).ToString() + " != expected " +
                     std::to_string(want));
    }
  }
  // Only meter_ingest runs a background mover, and it was stopped above.
  Cluster::StorageCensus end_census = Census(db);
  TupleMoverStats end_tm = MoverTotals(db);

  // --- metrics -------------------------------------------------------------------
  std::vector<const ClientLog*> all{&checks};
  for (const auto& l : logs) all.push_back(l.get());
  uint64_t attempted = 0, errors = 0, wrong = 0, timeouts = 0;
  for (const ClientLog* l : all) {
    attempted += l->attempted;
    errors += l->errors;
    wrong += l->wrong;
    timeouts += l->timeouts;
    if (!l->first_problem.empty()) std::fprintf(stderr, "problem: %s\n", l->first_problem.c_str());
  }
  const uint64_t w0 = s0.t_ns, w1 = s1.t_ns;
  const double window_s = Seconds(w1 - w0);
  std::vector<Sample> read_samples = InWindow(all, &ClientLog::reads, w0, w1);
  std::vector<double> reads = Millis(read_samples);
  std::vector<double> deletes = Millis(InWindow(all, &ClientLog::deletes, w0, w1));
  std::vector<double> lags = Millis(InWindow(all, &ClientLog::loads, w0, w1));
  const bool enough_reads = reads.size() >= kMinReads;
  if (!enough_reads) {
    std::fprintf(stderr, "problem: %zu reads in the window, fewer than %zu\n", reads.size(),
                 kMinReads);
  }

  std::map<std::string, double> e2e;
  e2e["read_qps"] = static_cast<double>(reads.size()) / window_s;
  e2e["read_p50_ms"] = Quantile(reads, 0.5);
  e2e["read_p95_ms"] = Quantile(reads, 0.95);
  e2e["bytes_per_row"] = bytes_per_row;
  e2e["rss_mb"] = Quantile(rss, 0.5);

  std::map<std::string, double> info;
  info["read_n"] = static_cast<double>(reads.size());
  info["read_p99_ms"] = Quantile(reads, 0.99);
  info["failed_frac"] = static_cast<double>(errors + wrong) / static_cast<double>(attempted);
  info["window_s"] = window_s;
  info["rss_max_mb"] = rss.empty() ? 0.0 : *std::max_element(rss.begin(), rss.end());
  if (cfg.ingest) {
    info["load_lag_p50_ms"] = Quantile(lags, 0.5);
    info["load_lag_p95_ms"] = Quantile(lags, 0.95);
    info["loads_n"] = static_cast<double>(lags.size());
    info["delete_p50_ms"] = Quantile(deletes, 0.5);
    info["deletes_n"] = static_cast<double>(deletes.size());
  }

  std::map<std::string, double> m;  // per-layer, traced runs only
  if (args.trace) {
    auto d = [&](const std::string& k) { return s1.v.at(k) - s0.v.at(k); };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double stmts = static_cast<double>(reads.size() + deletes.size());
    double parse_ns = 0, plan_ns = 0, parsed = 0, planned = 0, bypasses = 0, fanout = 0,
           est_mem = 0;
    for (const ClientLog* l : all) {
      parse_ns += l->parse_ns;
      plan_ns += l->plan_ns;
      parsed += static_cast<double>(l->parsed);
      planned += static_cast<double>(l->planned);
      bypasses += static_cast<double>(l->bypasses);
      fanout += l->fanout_sum;
      est_mem += l->est_mem_sum;
    }
    double stmt_ms = 0;
    for (double v : reads) stmt_ms += v;
    for (double v : deletes) stmt_ms += v;
    const double tasks = d("tasks_run") + d("tasks_stolen") + d("tasks_inline");
    double rows_ingested =
        static_cast<double>(data.LogicalRows() + (loader ? loader->rows_loaded : 0));
    double bytes_ingested =
        static_cast<double>(data.RawBytes() + (loader ? loader->rows_loaded * 4 * 8 : 0));
    // What tracing costs a client: its traced statements (bench front end
    // + Execute) against the Execute calls of untraced slices.
    std::vector<double> traced_ms, plain_ms;
    for (const Sample& x : read_samples) {
      if (x.traced) {
        traced_ms.push_back(x.span_ms);
      } else {
        plain_ms.push_back(x.ms);
      }
    }
    double traced_p50 = Quantile(traced_ms, 0.5);
    double plain_p50 = Quantile(plain_ms, 0.5);

    m["sql.parse_us"] = ratio(parse_ns, parsed) / 1e3;
    m["opt.plan_us"] = ratio(plan_ns, planned) / 1e3;
    m["opt.fanout_mean"] = ratio(fanout, planned);
    m["opt.morsel_bypass_frac"] = ratio(bypasses, planned);
    m["opt.est_mem_mb"] = ratio(est_mem, planned) / kMiB;
    m["admission.queued_frac"] = ratio(d("queued"), d("admitted"));
    m["admission.timeouts"] = d("timeouts");
    m["admission.peak_active"] = s1.v.at("peak_active");
    m["admission.peak_reserved_mb"] = s1.v.at("peak_reserved") / kMiB;
    m["exec.cpu_ms_per_stmt"] = ratio((s1.cpu_s - s0.cpu_s) * 1e3, stmts);
    m["exec.rows_scanned_per_stmt"] = ratio(d("rows_scanned"), stmts);
    m["exec.blocks_pruned_per_stmt"] = ratio(d("blocks_pruned"), stmts);
    m["exec.rows_decoded_per_stmt"] = ratio(d("rows_decoded"), stmts);
    m["exec.encoded_row_frac"] = ratio(d("rows_encoded"), d("rows_scanned"));
    m["exec.decode_elided_mb_per_stmt"] = ratio(d("decode_elided_bytes") / kMiB, stmts);
    m["exec.rows_sip_filtered_per_stmt"] = ratio(d("rows_sip_filtered"), stmts);
    m["exec.topk_rows_pruned_per_stmt"] = ratio(d("topk_rows_pruned"), stmts);
    m["exec.rows_spilled"] = d("rows_spilled");
    m["exec.morsel_bypasses"] = d("morsel_bypasses");
    m["exec.io_retries"] = d("io_retries");
    m["exec.reads_failed_over"] = d("reads_failed_over");
    m["exec.exchange_mb_per_stmt"] = ratio(d("exchange_bytes") / kMiB, stmts);
    m["exec.exchange_hedges"] = d("exchange_hedges");
    m["exec.exchange_reroutes"] = d("exchange_reroutes");
    m["sched.tasks_per_stmt"] = ratio(tasks, stmts);
    m["sched.steal_frac"] = ratio(d("tasks_stolen"), tasks);
    m["sched.inline_frac"] = ratio(d("tasks_inline"), tasks);
    m["sched.pinned_started_per_stmt"] = ratio(d("pinned_started"), stmts);
    m["sched.pinned_reuse_frac"] = ratio(d("pinned_reused"), d("pinned_started"));
    m["storage.read_ops_per_stmt"] = ratio(d("fs_read_ops"), stmts);
    m["storage.read_mb_per_stmt"] = ratio(d("fs_read_bytes") / kMiB, stmts);
    m["storage.read_ms_per_stmt"] = ratio(d("fs_read_ns") / 1e6, stmts);
    m["storage.read_overlap"] = ratio(d("fs_read_ns") / 1e6, stmt_ms);
    m["storage.write_mb_per_mb_ingested"] = ratio(s1.v.at("fs_write_bytes"), bytes_ingested);
    m["storage.ros_containers"] = static_cast<double>(end_census.containers);
    m["storage.compression_ratio"] = ratio(static_cast<double>(end_census.raw_bytes),
                                           static_cast<double>(end_census.bytes));
    m["tm.moveouts"] = static_cast<double>(end_tm.moveouts);
    m["tm.mergeouts"] = static_cast<double>(end_tm.mergeouts);
    m["tm.rows_merged_per_row_ingested"] =
        ratio(static_cast<double>(end_tm.rows_merged), rows_ingested);
    m["tm.rows_purged"] = static_cast<double>(end_tm.rows_purged);
    m["tm.stale_applies"] = static_cast<double>(end_tm.stale_applies);
    // The engine counts load shipping here (exchanges are exec.exchange_*).
    m["cluster.network_mb_per_mb_ingested"] = ratio(s1.v.at("network_bytes"), bytes_ingested);
    m["dml.delete_rows_per_stmt"] =
        ratio(deleter ? static_cast<double>(deleter->rows_deleted) : 0.0,
              static_cast<double>(deletes.size()));
    m["trace_overhead_pct"] = ratio(traced_p50 - plain_p50, plain_p50) * 100.0;

    // Drain every thread that records before reading the per-thread
    // buffers: the database's destructor joins the scheduler workers.
    inst.reset();
    m["storage.read_us_p50"] = tracer::ReadHistogram().Quantile(0.5) / 1e3;
    info["trace_spans"] = static_cast<double>(tracer::SpansKept());
    info["trace_spans_dropped"] = static_cast<double>(tracer::SpansDropped());
    Status st = tracer::WriteJsonl(std::string("trace-") + WorkloadName(args.workload) +
                                   ".jsonl");
    if (!st.ok()) Fail("write trace", st);
  }
  inst.reset();

  for (int i = 1; i < kSetups; ++i) {
    std::unique_ptr<Instance> extra;
    setups.push_back(SetUp(cfg, args, data, &extra));
  }
  std::vector<double> totals, load_s, tm_s;
  for (const auto& s : setups) {
    totals.push_back(s.total_s);
    load_s.push_back(s.load_s);
    tm_s.push_back(s.tm_s);
  }
  e2e["setup_s"] = Quantile(totals, 0.5);
  for (size_t i = 0; i < totals.size(); ++i) info["setup_s." + std::to_string(i)] = totals[i];
  info["peak_rss_mb"] = PeakRssMb();
  if (args.trace) {
    m["load.rows_per_s"] =
        static_cast<double>(data.LogicalRows()) / Quantile(load_s, 0.5);
    m["load.tm_setup_s"] = Quantile(tm_s, 0.5);
    out.Object("layers", m);
  }
  out.Object("e2e", e2e);
  out.Object("info", info);
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(errors + wrong));
  out.Num("errors", static_cast<double>(errors));
  out.Num("wrong", static_cast<double>(wrong));
  out.Num("admission_timeouts", static_cast<double>(timeouts));
  out.Bool("correct", wrong == 0 && errors == 0 && enough_reads);
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace stratica

int main(int argc, char** argv) { return stratica::e2e::Main(argc, argv); }
