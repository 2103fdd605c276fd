#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

namespace stratica {
namespace e2e {

// --- Histogram -----------------------------------------------------------------

namespace {

int BucketOf(uint64_t v) {
  if (v < 32) return static_cast<int>(v);
  int msb = 63 - __builtin_clzll(v);  // >= 5
  int shift = msb - 5;                // keep the top 6 bits: 32 sub-buckets
  return (shift + 1) * 32 + static_cast<int>((v >> shift) & 31);
}

/// [low, high) of values landing in bucket `b` (inverse of BucketOf).
std::pair<double, double> BucketRange(int b) {
  if (b < 32) return {static_cast<double>(b), static_cast<double>(b + 1)};
  int shift = b / 32 - 1;
  double low = std::ldexp(static_cast<double>(32 + b % 32), shift);
  return {low, low + std::ldexp(1.0, shift)};
}

}  // namespace

void Histogram::Add(uint64_t ns) {
  int b = BucketOf(ns);
  if (b >= kBuckets) b = kBuckets - 1;
  ++counts_[b];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  double rank = q * static_cast<double>(count_);
  double seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (seen + counts_[b] >= rank) {
      auto [low, high] = BucketRange(b);
      return low + (high - low) * (rank - seen) / counts_[b];
    }
    seen += counts_[b];
  }
  return BucketRange(kBuckets - 1).second;
}

// --- tracer --------------------------------------------------------------------

namespace tracer {
namespace {

/// Bounds on buffered spans across all threads, so the traced run's memory
/// and trace file stay small; spans past them are counted, not kept. Storage
/// spans (trace_id 0) outnumber statement spans about 70 to 1 on short
/// statements, so each kind has its own bound.
constexpr uint64_t kMaxSpansPerKind = 100000;

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
  Histogram reads;
};

const auto g_epoch = std::chrono::steady_clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint64_t> g_reserved[2];  // statement-level, storage
std::atomic<uint64_t> g_dropped{0};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // guarded by g_registry_mu

/// The calling thread's buffer. Buffers are owned by the registry, so they
/// outlive their threads and can be drained after the threads are gone.
ThreadBuffer* Local() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buf = g_registry.back().get();
    buf->thread = static_cast<uint32_t>(g_registry.size());
  }
  return buf;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - g_epoch)
                                   .count());
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
uint64_t NextId() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void Record(const Span& span) {
  auto& reserved = g_reserved[span.trace_id == 0 ? 1 : 0];
  if (reserved.fetch_add(1, std::memory_order_relaxed) >= kMaxSpansPerKind) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuffer* buf = Local();
  buf->spans.push_back(span);
  buf->spans.back().thread = buf->thread;
}

void RecordRead(uint64_t ns) { Local()->reads.Add(ns); }

Histogram ReadHistogram() {
  std::lock_guard lock(g_registry_mu);
  Histogram all;
  for (const auto& buf : g_registry) all.Merge(buf->reads);
  return all;
}

uint64_t SpansKept() {
  uint64_t kept = 0;
  for (const auto& reserved : g_reserved) kept += std::min(reserved.load(), kMaxSpansPerKind);
  return kept;
}
uint64_t SpansDropped() { return g_dropped.load(); }

Status WriteJsonl(const std::string& path) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return Status::IoError("cannot open " + path);
  std::lock_guard lock(g_registry_mu);
  for (const auto& buf : g_registry) {
    for (const Span& s : buf->spans) {
      std::fprintf(f.get(),
                   "{\"trace_id\":%llu,\"span_id\":%llu,\"parent_id\":%llu,\"name\":\"%s\","
                   "\"thread\":%u,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   static_cast<unsigned long long>(s.trace_id),
                   static_cast<unsigned long long>(s.span_id),
                   static_cast<unsigned long long>(s.parent_id), s.name, s.thread,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  if (std::ferror(f.get())) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace tracer

// --- TimingFs --------------------------------------------------------------------

void TimingFs::DoneRead(uint64_t start_ns, uint64_t bytes) const {
  uint64_t end_ns = tracer::NowNs();
  counters_.read_ops.fetch_add(1, std::memory_order_relaxed);
  counters_.read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  counters_.read_ns.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
  if (tracer::Enabled()) {
    tracer::RecordRead(end_ns - start_ns);
    Span s;
    s.span_id = tracer::NextId();
    s.name = "storage.read";
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    tracer::Record(s);
  }
}

Status TimingFs::WriteFile(const std::string& path, const std::string& data) {
  uint64_t start_ns = tracer::NowNs();
  Status st = base_->WriteFile(path, data);
  uint64_t end_ns = tracer::NowNs();
  counters_.write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  if (tracer::Enabled()) {
    Span s;
    s.span_id = tracer::NextId();
    s.name = "storage.write";
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    tracer::Record(s);
  }
  return st;
}

Result<std::string> TimingFs::ReadFile(const std::string& path) const {
  uint64_t start_ns = tracer::NowNs();
  auto r = base_->ReadFile(path);
  DoneRead(start_ns, r.ok() ? r.value().size() : 0);
  return r;
}

Result<std::string> TimingFs::ReadRange(const std::string& path, uint64_t offset,
                                        uint64_t length) const {
  uint64_t start_ns = tracer::NowNs();
  auto r = base_->ReadRange(path, offset, length);
  DoneRead(start_ns, r.ok() ? r.value().size() : 0);
  return r;
}

Status TimingFs::ReadRangeInto(const std::string& path, uint64_t offset, uint64_t length,
                               std::string* out) const {
  uint64_t start_ns = tracer::NowNs();
  Status st = base_->ReadRangeInto(path, offset, length, out);
  DoneRead(start_ns, st.ok() ? out->size() : 0);
  return st;
}

}  // namespace e2e
}  // namespace stratica
