#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <queue>
#include <utility>

namespace perfbench {

using fedaqp::PrivacyBudget;
using fedaqp::Result;
using fedaqp::Status;

namespace {

const std::chrono::steady_clock::time_point& Origin() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return origin;
}

uint32_t ThisThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1);
  return id;
}

/// Ticket spans carry this tid until export assigns them a lane.
constexpr uint32_t kTicketTid = 0;
constexpr uint32_t kBatchTid = 99999;
constexpr uint32_t kLaneTidBase = 100000;

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCover: return "endpoint.cover";
    case SpanKind::kSummary: return "endpoint.publish_summary";
    case SpanKind::kApproximate: return "endpoint.approximate";
    case SpanKind::kExactAnswer: return "endpoint.exact_answer";
    case SpanKind::kExactScan: return "endpoint.exact_full_scan";
    case SpanKind::kEndQuery: return "endpoint.end_query";
    case SpanKind::kLedgerOp: return "ledger.op";
    case SpanKind::kTicket: return "ticket";
    case SpanKind::kBatch: return "batch";
    case SpanKind::kNumKinds: break;
  }
  return "unknown";
}

bool IsSessionCall(SpanKind kind) {
  return kind == SpanKind::kCover || kind == SpanKind::kSummary ||
         kind == SpanKind::kApproximate || kind == SpanKind::kExactAnswer ||
         kind == SpanKind::kEndQuery;
}

SpanRecorder::SpanRecorder() { (void)Origin(); }

int64_t SpanRecorder::Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Origin())
      .count();
}

void SpanRecorder::Record(SpanKind kind, uint32_t detail, int64_t t0_ns,
                          int64_t t1_ns) {
  const uint32_t tid = ThisThreadId();
  Shard& shard = shards_[tid % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.spans.push_back(Span{kind, tid, detail, t0_ns, t1_ns});
}

void SpanRecorder::RecordTicket(int64_t t0_ns, int64_t t1_ns) {
  Shard& shard = shards_[0];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.spans.push_back(Span{SpanKind::kTicket, kTicketTid, 0, t0_ns, t1_ns});
}

void SpanRecorder::RecordBatch(int64_t t0_ns, int64_t t1_ns) {
  Shard& shard = shards_[0];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.spans.push_back(Span{SpanKind::kBatch, kBatchTid, 0, t0_ns, t1_ns});
}

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> all;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    all.insert(all.end(), shard.spans.begin(), shard.spans.end());
  }
  return all;
}

double SpanStats::MeanUs(SpanKind kind) const {
  const size_t k = static_cast<size_t>(kind);
  return count[k] == 0 ? 0.0 : seconds[k] / count[k] * 1e6;
}

SpanStats Summarize(const std::vector<Span>& spans) {
  SpanStats stats;
  for (const Span& s : spans) {
    const size_t k = static_cast<size_t>(s.kind);
    stats.count[k] += 1;
    stats.seconds[k] += s.seconds();
    if (s.kind == SpanKind::kLedgerOp) {
      stats.ledger_op_seconds.push_back(s.seconds());
    }
  }
  return stats;
}

bool WriteChromeTrace(const std::string& path, std::vector<Span> spans,
                      size_t max_spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns : a.t1_ns > b.t1_ns;
  });
  if (spans.size() > max_spans) spans.resize(max_spans);

  // Overlapping tickets: greedy interval partitioning onto lanes.
  using LaneEnd = std::pair<int64_t, uint32_t>;
  std::priority_queue<LaneEnd, std::vector<LaneEnd>, std::greater<LaneEnd>>
      free_at;
  uint32_t lanes = 0;
  for (Span& s : spans) {
    if (s.kind != SpanKind::kTicket) continue;
    uint32_t lane;
    if (!free_at.empty() && free_at.top().first <= s.t0_ns) {
      lane = free_at.top().second;
      free_at.pop();
    } else {
      lane = lanes++;
    }
    s.tid = kLaneTidBase + lane;
    free_at.push({s.t1_ns, lane});
  }

  struct Event {
    int64_t ts_ns;
    uint64_t order;  // per-thread emission order breaks timestamp ties
    const char* name;
    const char* cat;
    char ph;
    uint32_t tid;
  };
  auto category = [](SpanKind kind) {
    switch (kind) {
      case SpanKind::kTicket: return "ticket";
      case SpanKind::kBatch: return "batch";
      case SpanKind::kLedgerOp: return "ledger";
      default: return "endpoint";
    }
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  // Spans arrive start-sorted; per thread, a stack closes every open span
  // that ends before the next one starts, so B/E pairs nest LIFO.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) { return a.tid < b.tid; });
  uint64_t order = 0;
  for (size_t i = 0; i < spans.size();) {
    size_t j = i;
    std::vector<const Span*> stack;
    auto close = [&](const Span* s, int64_t at) {
      events.push_back(
          Event{at, order++, SpanName(s->kind), category(s->kind), 'E', s->tid});
    };
    for (; j < spans.size() && spans[j].tid == spans[i].tid; ++j) {
      Span& s = spans[j];
      while (!stack.empty() && stack.back()->t1_ns <= s.t0_ns) {
        close(stack.back(), stack.back()->t1_ns);
        stack.pop_back();
      }
      // A span may not outlive its parent on one thread; clamp clock jitter.
      if (!stack.empty() && s.t1_ns > stack.back()->t1_ns) {
        s.t1_ns = stack.back()->t1_ns;
      }
      events.push_back(
          Event{s.t0_ns, order++, SpanName(s.kind), category(s.kind), 'B', s.tid});
      stack.push_back(&s);
    }
    while (!stack.empty()) {
      close(stack.back(), stack.back()->t1_ns);
      stack.pop_back();
    }
    i = j;
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.order < b.order;
  });

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                 "\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                 i == 0 ? "" : ",", e.name, e.cat, e.ph,
                 static_cast<double>(e.ts_ns) / 1e3, e.tid);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ endpoint --

namespace {

template <typename Fn>
auto Timed(SpanRecorder* rec, SpanKind kind, uint32_t detail, Fn&& fn) {
  const int64_t t0 = SpanRecorder::Now();
  auto out = fn();
  rec->Record(kind, detail, t0, SpanRecorder::Now());
  return out;
}

}  // namespace

Result<fedaqp::CoverReply> TracedEndpoint::Cover(
    const fedaqp::CoverRequest& request) {
  return Timed(recorder_, SpanKind::kCover, provider_,
               [&] { return inner_->Cover(request); });
}

Result<fedaqp::SummaryReply> TracedEndpoint::PublishSummary(
    const fedaqp::SummaryRequest& request) {
  return Timed(recorder_, SpanKind::kSummary, provider_,
               [&] { return inner_->PublishSummary(request); });
}

Result<fedaqp::EstimateReply> TracedEndpoint::Approximate(
    const fedaqp::ApproximateRequest& request) {
  return Timed(recorder_, SpanKind::kApproximate, provider_,
               [&] { return inner_->Approximate(request); });
}

Result<fedaqp::EstimateReply> TracedEndpoint::ExactAnswer(
    const fedaqp::ExactAnswerRequest& request) {
  return Timed(recorder_, SpanKind::kExactAnswer, provider_,
               [&] { return inner_->ExactAnswer(request); });
}

Result<fedaqp::ExactScanReply> TracedEndpoint::ExactFullScan(
    const fedaqp::ExactScanRequest& request) {
  return Timed(recorder_, SpanKind::kExactScan, provider_,
               [&] { return inner_->ExactFullScan(request); });
}

void TracedEndpoint::EndQuery(uint64_t query_id) {
  const int64_t t0 = SpanRecorder::Now();
  inner_->EndQuery(query_id);
  recorder_->Record(SpanKind::kEndQuery, provider_, t0, SpanRecorder::Now());
}

// -------------------------------------------------------------- ledger --

void TracedLedger::Note(int64_t t0, uint32_t method) const {
  const int64_t t1 = SpanRecorder::Now();
  std::lock_guard<std::mutex> lock(mu_);
  ++calls_;
  recorder_->Record(SpanKind::kLedgerOp, method, t0, t1);
}

void TracedLedger::Log(LedgerOpRecord::Op op, uint64_t seq, double eps,
                       bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(LedgerOpRecord{op, seq, eps, ok});
}

Status TracedLedger::Register(const std::string& analyst, double xi,
                              double psi) {
  const int64_t t0 = SpanRecorder::Now();
  Status s = inner_->Register(analyst, xi, psi);
  Note(t0, 0);
  return s;
}

Result<bool> TracedLedger::Knows(const std::string& analyst) const {
  const int64_t t0 = SpanRecorder::Now();
  Result<bool> r = inner_->Knows(analyst);
  Note(t0, 1);
  return r;
}

Status TracedLedger::Charge(const std::string& analyst,
                            const PrivacyBudget& cost, uint64_t seq) {
  const int64_t t0 = SpanRecorder::Now();
  Status s = inner_->Charge(analyst, cost, seq);
  Note(t0, 2);
  Log(LedgerOpRecord::Op::kCharge, seq, cost.epsilon, s.ok());
  return s;
}

Status TracedLedger::Refund(const std::string& analyst,
                            const PrivacyBudget& amount, uint64_t seq) {
  const int64_t t0 = SpanRecorder::Now();
  Status s = inner_->Refund(analyst, amount, seq);
  Note(t0, 3);
  Log(LedgerOpRecord::Op::kRefund, seq, amount.epsilon, s.ok());
  return s;
}

void TracedLedger::RecordSaving(const std::string& analyst,
                                const PrivacyBudget& amount, uint64_t seq) {
  const int64_t t0 = SpanRecorder::Now();
  inner_->RecordSaving(analyst, amount, seq);
  Note(t0, 4);
}

Result<PrivacyBudget> TracedLedger::Remaining(const std::string& analyst) const {
  const int64_t t0 = SpanRecorder::Now();
  Result<PrivacyBudget> r = inner_->Remaining(analyst);
  Note(t0, 5);
  return r;
}

Result<PrivacyBudget> TracedLedger::Spent(const std::string& analyst) const {
  const int64_t t0 = SpanRecorder::Now();
  Result<PrivacyBudget> r = inner_->Spent(analyst);
  Note(t0, 6);
  return r;
}

std::vector<LedgerOpRecord> TracedLedger::ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

uint64_t TracedLedger::num_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

}  // namespace perfbench
