// Bench-side tracing for the traced run of bench_e2e: spans recorded around
// the calls the bench makes into each layer, kept in per-thread memory
// buffers and written out as JSON lines when the run ends.
//
// Nothing here reaches inside the engine. Statement spans (with sql.parse,
// opt.plan and execute children) come from the client threads; storage
// spans come from TimingFs, a FileSystem wrapper installed through
// DatabaseOptions::fs. Storage calls run on scheduler workers, so their
// spans carry only their thread, not a parent statement.
#ifndef STRATICA_BENCH_E2E_TRACE_H_
#define STRATICA_BENCH_E2E_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fs.h"

namespace stratica {
namespace e2e {

struct Span {
  uint64_t trace_id = 0;  ///< statement id; 0 for storage spans
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 for roots
  const char* name = "";   ///< static string
  uint32_t thread = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Log-linear latency histogram (32 sub-buckets per power of two, about 3%
/// resolution): cheap enough to fill on every storage call.
class Histogram {
 public:
  void Add(uint64_t ns);
  void Merge(const Histogram& other);
  /// Value at quantile q in [0, 1], interpolated inside its bucket.
  double Quantile(double q) const;

 private:
  static constexpr int kBuckets = 64 * 32;
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

/// Process-wide span recorder. Spans and read histograms are only collected
/// while Enabled(); the main thread toggles it to alternate traced and
/// untraced slices of the measured window.
namespace tracer {

uint64_t NowNs();
bool Enabled();
void SetEnabled(bool on);
uint64_t NextId();
/// Append to the calling thread's buffer (no lock after the first call).
/// Spans with trace_id 0 count as storage spans against their own bound.
void Record(const Span& span);
/// Add a storage read duration to the calling thread's histogram.
void RecordRead(uint64_t ns);
/// Merged read-latency histogram of every thread. Call only once every
/// thread that records has finished.
Histogram ReadHistogram();
/// Spans kept and spans dropped past the in-memory cap.
uint64_t SpansKept();
uint64_t SpansDropped();
/// Write every buffered span as one JSON object per line. Call only once
/// every thread that records has finished.
Status WriteJsonl(const std::string& path);

}  // namespace tracer

/// \brief FileSystem wrapper that counts and times reads and writes into
/// the storage layer. Counters are always on; spans and the read histogram
/// follow tracer::Enabled().
class TimingFs : public FileSystem {
 public:
  /// Does not own `base`, which must outlive this wrapper.
  explicit TimingFs(FileSystem* base) : base_(base) {}

  struct Counters {
    std::atomic<uint64_t> read_ops{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> read_ns{0};
    std::atomic<uint64_t> write_bytes{0};
  };
  const Counters& counters() const { return counters_; }

  Status WriteFile(const std::string& path, const std::string& data) override;
  Result<std::string> ReadFile(const std::string& path) const override;
  Result<std::string> ReadRange(const std::string& path, uint64_t offset,
                                uint64_t length) const override;
  Status ReadRangeInto(const std::string& path, uint64_t offset, uint64_t length,
                       std::string* out) const override;
  Result<uint64_t> FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }
  bool Exists(const std::string& path) const override { return base_->Exists(path); }
  Status Delete(const std::string& path) override { return base_->Delete(path); }
  Result<std::vector<std::string>> List(const std::string& prefix) const override {
    return base_->List(prefix);
  }
  Status HardLink(const std::string& source, const std::string& target) override {
    return base_->HardLink(source, target);
  }

 private:
  void DoneRead(uint64_t start_ns, uint64_t bytes) const;

  FileSystem* base_;
  mutable Counters counters_;
};

}  // namespace e2e
}  // namespace stratica

#endif  // STRATICA_BENCH_E2E_TRACE_H_
