// Layer tracing kept in the benchmark's own code: a span recorder, and
// decorators that time every call the client makes into a provider
// endpoint (in-process or RemoteEndpoint) and into a ledger backend
// (RemoteLedger). The decorators forward everything else unchanged
// (IssueAsync, max_concurrent_calls, ConfigureScanSharding), so a traced
// client differs from an untraced one only by the clock reads.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/endpoint.h"
#include "serve/ledger_backend.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kCover = 0,
  kSummary,
  kApproximate,
  kExactAnswer,
  kExactScan,
  kEndQuery,
  kLedgerOp,
  kTicket,
  kBatch,
  kNumKinds,
};
constexpr size_t kNumSpanKinds = static_cast<size_t>(SpanKind::kNumKinds);

const char* SpanName(SpanKind kind);
/// True for the sessionful protocol calls one approximate query makes.
bool IsSessionCall(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kCover;
  uint32_t tid = 0;
  /// Provider index for endpoint calls, ledger method for ledger ops.
  uint32_t detail = 0;
  int64_t t0_ns = 0;
  int64_t t1_ns = 0;
  double seconds() const { return static_cast<double>(t1_ns - t0_ns) * 1e-9; }
};

/// Thread-safe, in-memory span store. Spans land in one of a few
/// mutex-guarded shards picked by the recording thread, and are written
/// out only when the run ends.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Nanoseconds since `origin` (shared by every recorder of a process).
  static int64_t Now();
  void Record(SpanKind kind, uint32_t detail, int64_t t0_ns, int64_t t1_ns);
  /// A ticket's span, submit to delivery. Tickets overlap, so export lays
  /// them out on virtual lanes.
  void RecordTicket(int64_t t0_ns, int64_t t1_ns);
  /// An admission round's span (bursts run one round at a time), on a
  /// track of its own.
  void RecordBatch(int64_t t0_ns, int64_t t1_ns);
  std::vector<Span> Collect() const;

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<Span> spans;  // guarded by mu
  };
  mutable std::array<Shard, kShards> shards_;
};

/// Per-kind totals over a span list.
struct SpanStats {
  std::array<uint64_t, kNumSpanKinds> count{};
  std::array<double, kNumSpanKinds> seconds{};
  std::vector<double> ledger_op_seconds;
  double MeanUs(SpanKind kind) const;
};
SpanStats Summarize(const std::vector<Span>& spans);

/// Writes `spans` as Chrome trace-event JSON (B/E pairs, globally
/// ts-sorted, LIFO-balanced per thread — the shape tools/trace_summary.py
/// validates). Overlapping ticket spans go to virtual lanes. At most
/// `max_spans` spans are written, earliest first. Returns false on I/O
/// failure.
bool WriteChromeTrace(const std::string& path, std::vector<Span> spans,
                      size_t max_spans);

/// Endpoint decorator: one span per call, on the thread making the call.
class TracedEndpoint final : public fedaqp::ProviderEndpoint {
 public:
  TracedEndpoint(std::shared_ptr<fedaqp::ProviderEndpoint> inner,
                 SpanRecorder* recorder, uint32_t provider)
      : inner_(std::move(inner)), recorder_(recorder), provider_(provider) {}

  const fedaqp::EndpointInfo& info() const override { return inner_->info(); }
  fedaqp::Result<fedaqp::CoverReply> Cover(
      const fedaqp::CoverRequest& request) override;
  fedaqp::Result<fedaqp::SummaryReply> PublishSummary(
      const fedaqp::SummaryRequest& request) override;
  fedaqp::Result<fedaqp::EstimateReply> Approximate(
      const fedaqp::ApproximateRequest& request) override;
  fedaqp::Result<fedaqp::EstimateReply> ExactAnswer(
      const fedaqp::ExactAnswerRequest& request) override;
  fedaqp::Result<fedaqp::ExactScanReply> ExactFullScan(
      const fedaqp::ExactScanRequest& request) override;
  void EndQuery(uint64_t query_id) override;
  void IssueAsync(std::function<void()> call) override {
    inner_->IssueAsync(std::move(call));
  }
  size_t max_concurrent_calls() const override {
    return inner_->max_concurrent_calls();
  }
  void ConfigureScanSharding(fedaqp::ThreadPool* scan_pool,
                             size_t num_scan_shards) override {
    inner_->ConfigureScanSharding(scan_pool, num_scan_shards);
  }

 private:
  std::shared_ptr<fedaqp::ProviderEndpoint> inner_;
  SpanRecorder* recorder_;
  uint32_t provider_;
};

/// One budget mutation as the ledger decorator saw it.
struct LedgerOpRecord {
  enum class Op : uint8_t { kCharge = 0, kRefund };
  Op op = Op::kCharge;
  uint64_t seq = 0;
  double epsilon = 0.0;
  bool ok = false;
};

/// Ledger decorator: a span per budget operation, plus a log of every
/// charge and refund with its admission seq for the per-ticket ledger
/// reconciliation.
class TracedLedger final : public fedaqp::serve::LedgerBackend {
 public:
  TracedLedger(std::shared_ptr<fedaqp::serve::LedgerBackend> inner,
               SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  fedaqp::Status Register(const std::string& analyst, double xi,
                          double psi) override;
  fedaqp::Result<bool> Knows(const std::string& analyst) const override;
  fedaqp::Status Charge(const std::string& analyst,
                        const fedaqp::PrivacyBudget& cost,
                        uint64_t seq) override;
  fedaqp::Status Refund(const std::string& analyst,
                        const fedaqp::PrivacyBudget& amount,
                        uint64_t seq) override;
  void RecordSaving(const std::string& analyst,
                    const fedaqp::PrivacyBudget& amount,
                    uint64_t seq) override;
  fedaqp::Result<fedaqp::PrivacyBudget> Remaining(
      const std::string& analyst) const override;
  fedaqp::Result<fedaqp::PrivacyBudget> Spent(
      const std::string& analyst) const override;

  std::vector<LedgerOpRecord> ops() const;
  uint64_t num_calls() const;

 private:
  void Note(int64_t t0, uint32_t method) const;
  void Log(LedgerOpRecord::Op op, uint64_t seq, double eps, bool ok);

  std::shared_ptr<fedaqp::serve::LedgerBackend> inner_;
  SpanRecorder* recorder_;
  mutable std::mutex mu_;
  std::vector<LedgerOpRecord> ops_;  // guarded by mu_
  mutable uint64_t calls_ = 0;       // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
