#include "rpc/remote_endpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>
#include <variant>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedaqp {

namespace {

obs::Counter& BytesSentCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("rpc.client.bytes_sent");
  return *c;
}
obs::Counter& BytesReceivedCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("rpc.client.bytes_received");
  return *c;
}
obs::Counter& BatchExchangesCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("rpc.doorbell_batches");
  return *c;
}
obs::Counter& BatchedCallsCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("rpc.coalesced_calls");
  return *c;
}

/// Decodes a reply payload with `decode`, enforcing full consumption.
template <typename T>
Result<T> DecodeReply(const RpcFrame& frame, Result<T> (*decode)(ByteReader*)) {
  ByteReader reader(frame.payload);
  FEDAQP_ASSIGN_OR_RETURN(T value, decode(&reader));
  FEDAQP_RETURN_IF_ERROR(ExpectConsumed(reader));
  return value;
}

bool SameIdentity(const EndpointInfo& a, const EndpointInfo& b) {
  return a.name == b.name && a.schema == b.schema &&
         a.cluster_capacity == b.cluster_capacity && a.n_min == b.n_min;
}

Status PoisonedStatus() {
  return Status::FailedPrecondition(
      "rpc: connection poisoned by an earlier transport error; sessionful "
      "calls are never auto-retried — reconnect with a fresh endpoint "
      "(ExactFullScan reconnects automatically)");
}

}  // namespace

RemoteEndpoint::RemoteEndpoint(TcpConnection conn, EndpointInfo info,
                               std::string host, uint16_t port)
    : conn_(std::move(conn)),
      info_(std::move(info)),
      host_(std::move(host)),
      port_(port) {}

Result<std::pair<TcpConnection, EndpointInfo>> RemoteEndpoint::Handshake(
    const std::string& host, uint16_t port) {
  FEDAQP_ASSIGN_OR_RETURN(TcpConnection conn,
                          TcpConnection::Connect(host, port));
  // kInfo handshake: fetch the endpoint facts the orchestrator validates
  // at federation setup (and fail fast if the peer is not a fedaqp
  // provider speaking our wire version).
  FEDAQP_RETURN_IF_ERROR(conn.SendFrame(RpcMethod::kInfo, ByteWriter()));
  FEDAQP_ASSIGN_OR_RETURN(RpcFrame reply, conn.ReceiveFrame());
  if (reply.method == RpcMethod::kError) {
    ByteReader reader(reply.payload);
    Status remote = Status::OK();
    if (!DecodeStatusPayload(&reader, &remote).ok()) {
      return Status::ProtocolError("rpc: undecodable error reply");
    }
    return remote;
  }
  if (reply.method != RpcMethod::kInfo) {
    return Status::ProtocolError("rpc: handshake reply method mismatch");
  }
  FEDAQP_ASSIGN_OR_RETURN(EndpointInfo info,
                          DecodeReply(reply, DecodeEndpointInfo));
  return std::make_pair(std::move(conn), std::move(info));
}

Result<std::shared_ptr<RemoteEndpoint>> RemoteEndpoint::Connect(
    const std::string& host, uint16_t port) {
  FEDAQP_ASSIGN_OR_RETURN(auto handshake, Handshake(host, port));
  return std::shared_ptr<RemoteEndpoint>(
      new RemoteEndpoint(std::move(handshake.first),
                         std::move(handshake.second), host, port));
}

Result<std::vector<std::shared_ptr<ProviderEndpoint>>>
RemoteEndpoint::ConnectAll(const std::vector<std::string>& host_ports) {
  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints;
  endpoints.reserve(host_ports.size());
  for (const std::string& hp : host_ports) {
    size_t colon = hp.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= hp.size()) {
      return Status::InvalidArgument("rpc: expected host:port, got '" + hp +
                                     "'");
    }
    const std::string port_str = hp.substr(colon + 1);
    char* end = nullptr;
    unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
    if (end == port_str.c_str() || *end != '\0' || port == 0 || port > 65535) {
      return Status::InvalidArgument("rpc: bad port in '" + hp + "'");
    }
    FEDAQP_ASSIGN_OR_RETURN(
        std::shared_ptr<RemoteEndpoint> endpoint,
        Connect(hp.substr(0, colon), static_cast<uint16_t>(port)));
    endpoints.push_back(std::move(endpoint));
  }
  return endpoints;
}

Result<RpcFrame> RemoteEndpoint::UnwrapReplyLocked(RpcFrame reply,
                                                   RpcMethod method) {
  if (reply.method == RpcMethod::kError) {
    // An application-level refusal (bad session, invalid query, ...):
    // the stream stays in sync, the connection stays usable.
    ByteReader reader(reply.payload);
    Status remote = Status::OK();
    if (!DecodeStatusPayload(&reader, &remote).ok() ||
        !ExpectConsumed(reader).ok()) {
      broken_ = true;
      return Status::ProtocolError("rpc: undecodable error reply");
    }
    return remote;
  }
  if (reply.method != method) {
    broken_ = true;
    return Status::ProtocolError("rpc: reply method does not echo request");
  }
  return reply;
}

Result<RpcFrame> RemoteEndpoint::SingleExchangeLocked(
    RpcMethod method, const ByteWriter& payload) {
  // Caller holds mutex_. Byte-identical to the unbatched protocol: one
  // plain frame out, one plain frame in.
  if (broken_) return PoisonedStatus();
  Status sent = conn_.SendFrame(method, payload);
  if (!sent.ok()) {
    broken_ = true;
    return sent;
  }
  BytesSentCounter().Add(kFrameHeaderBytes + payload.size());
  Result<RpcFrame> reply = conn_.ReceiveFrame();
  if (!reply.ok()) {
    broken_ = true;
    return reply.status();
  }
  BytesReceivedCounter().Add(kFrameHeaderBytes + reply->payload.size());
  return UnwrapReplyLocked(std::move(*reply), method);
}

Result<RpcFrame> RemoteEndpoint::RoundTrip(RpcMethod method,
                                           const ByteWriter& payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  return SingleExchangeLocked(method, payload);
}

std::vector<Result<RpcFrame>> RemoteEndpoint::BatchRoundTrip(
    const std::vector<Call>& calls) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Result<RpcFrame>> replies;
  replies.reserve(calls.size());
  const auto fail_rest = [&](const Status& status) {
    while (replies.size() < calls.size()) replies.push_back(status);
  };
  size_t idx = 0;
  while (idx < calls.size()) {
    if (broken_) {
      fail_rest(PoisonedStatus());
      break;
    }
    if (idx + 1 == calls.size()) {
      // A lone call goes out as a plain frame: no batch, no overhead.
      replies.push_back(
          SingleExchangeLocked(calls[idx].method, calls[idx].payload));
      break;
    }
    // Greedy chunk: as many requests as fit under the outer frame's
    // payload cap. A chunk of one (an oversized neighbor) goes out plain.
    ByteWriter outer;
    const size_t chunk_begin = idx;
    while (idx < calls.size()) {
      const Call& call = calls[idx];
      const size_t framed = kFrameHeaderBytes + call.payload.size();
      if (idx > chunk_begin && outer.size() + framed > kMaxFramePayloadBytes) {
        break;
      }
      EncodeFrameHeader(call.method,
                        static_cast<uint32_t>(call.payload.size()), &outer);
      outer.PutRaw(call.payload.bytes().data(), call.payload.size());
      ++idx;
    }
    const size_t chunk_size = idx - chunk_begin;
    if (chunk_size == 1) {
      replies.push_back(SingleExchangeLocked(calls[chunk_begin].method,
                                             calls[chunk_begin].payload));
      continue;
    }
    Status sent = conn_.SendFrame(RpcMethod::kBatch, outer);
    if (!sent.ok()) {
      broken_ = true;
      fail_rest(sent);
      break;
    }
    // The outer header is the only sent byte the per-message protocol
    // charges do not already cover.
    batch_overhead_bytes_ += kFrameHeaderBytes;
    BytesSentCounter().Add(kFrameHeaderBytes + outer.size());
    Result<RpcFrame> reply = conn_.ReceiveFrame();
    if (!reply.ok()) {
      broken_ = true;
      fail_rest(reply.status());
      break;
    }
    BytesReceivedCounter().Add(kFrameHeaderBytes + reply->payload.size());
    if (reply->method == RpcMethod::kError) {
      // Whole-batch refusal: the server could not split the batch at all
      // (it never happens against our own encoder, but the stream is
      // still in sync — the refusal covers exactly this exchange).
      ByteReader reader(reply->payload);
      Status remote = Status::OK();
      if (!DecodeStatusPayload(&reader, &remote).ok() ||
          !ExpectConsumed(reader).ok()) {
        broken_ = true;
        fail_rest(Status::ProtocolError("rpc: undecodable error reply"));
        break;
      }
      while (replies.size() < idx) replies.push_back(remote);
      continue;
    }
    if (reply->method != RpcMethod::kBatch) {
      broken_ = true;
      fail_rest(Status::ProtocolError("rpc: batched reply method mismatch"));
      break;
    }
    batch_overhead_bytes_ += kFrameHeaderBytes;
    Result<std::vector<RpcFrame>> subs =
        DecodeBatchPayload(reply->payload, /*requests_only=*/false);
    if (!subs.ok()) {
      broken_ = true;
      fail_rest(subs.status());
      break;
    }
    if (subs->size() != chunk_size) {
      broken_ = true;
      fail_rest(Status::ProtocolError(
          "rpc: batched reply count does not match request count"));
      break;
    }
    // Sub-replies match request order; unwrap each exactly as a plain
    // reply would be (kError -> carried Status, else method echo check).
    for (size_t i = 0; i < chunk_size; ++i) {
      replies.push_back(UnwrapReplyLocked(std::move((*subs)[i]),
                                          calls[chunk_begin + i].method));
    }
    BatchExchangesCounter().Add();
    BatchedCallsCounter().Add(chunk_size);
  }
  return replies;
}

Status RemoteEndpoint::Reconnect(std::unique_lock<std::mutex>& lock) {
  // Bounded backoff: nothing before the first attempt, then 25 ms
  // doubling per consecutive failure, capped at 400 ms — enough to ride
  // out a provider restart without turning a dead peer into a spin loop.
  const int failures = reconnect_failures_;
  // host_/port_/info_ are immutable after construction, so the dial and
  // the identity check run safely outside the mutex; an unreachable peer
  // then stalls only this call, while concurrent ones keep failing fast
  // on broken_ and the odometers stay readable.
  lock.unlock();
  if (failures > 0) {
    const long ms = std::min(25L << std::min(failures - 1, 4), 400L);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  Result<std::pair<TcpConnection, EndpointInfo>> fresh =
      Handshake(host_, port_);
  const bool same_identity =
      fresh.ok() && SameIdentity(fresh->second, info_);
  lock.lock();
  if (!broken_) {
    // Another thread healed the connection while we dialed; keep theirs
    // (ours, if any, closes with `fresh` going out of scope).
    return Status::OK();
  }
  if (!fresh.ok()) {
    ++reconnect_failures_;
    return fresh.status();
  }
  if (!same_identity) {
    ++reconnect_failures_;
    return Status::FailedPrecondition(
        "rpc: reconnected peer is a different provider (schema/capacity "
        "changed); refusing to silently switch federations");
  }
  // Keep lifetime odometers truthful across the swap.
  retired_bytes_sent_ += conn_.bytes_sent();
  retired_bytes_received_ += conn_.bytes_received();
  conn_ = std::move(fresh->first);
  broken_ = false;
  reconnect_failures_ = 0;
  return Status::OK();
}

Result<CoverReply> RemoteEndpoint::Cover(const CoverRequest& request) {
  obs::ScopedSpan span("rpc", "rpc/cover", request.query_id);
  ByteWriter payload;
  EncodeCoverRequest(request, &payload);
  FEDAQP_ASSIGN_OR_RETURN(RpcFrame reply,
                          RoundTrip(RpcMethod::kCover, payload));
  return DecodeReply(reply, DecodeCoverReply);
}

Result<SummaryReply> RemoteEndpoint::PublishSummary(
    const SummaryRequest& request) {
  obs::ScopedSpan span("rpc", "rpc/publish_summary", request.query_id);
  ByteWriter payload;
  EncodeSummaryRequest(request, &payload);
  FEDAQP_ASSIGN_OR_RETURN(RpcFrame reply,
                          RoundTrip(RpcMethod::kPublishSummary, payload));
  return DecodeReply(reply, DecodeSummaryReply);
}

Result<OpenReply> RemoteEndpoint::Open(const OpenRequest& request) {
  return std::move(OpenBatch({request}).front());
}

std::vector<Result<OpenReply>> RemoteEndpoint::OpenBatch(
    const std::vector<OpenRequest>& requests) {
  obs::ScopedSpan span("rpc", "rpc/open_batch");
  std::vector<Call> calls(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    calls[i].method = RpcMethod::kOpen;
    EncodeOpenRequest(requests[i], &calls[i].payload);
  }
  std::vector<Result<RpcFrame>> frames = BatchRoundTrip(calls);
  std::vector<Result<OpenReply>> replies;
  replies.reserve(frames.size());
  for (const Result<RpcFrame>& frame : frames) {
    if (!frame.ok()) {
      replies.push_back(frame.status());
    } else {
      replies.push_back(DecodeReply(*frame, DecodeOpenReply));
    }
  }
  return replies;
}

Result<EstimateReply> RemoteEndpoint::Approximate(
    const ApproximateRequest& request) {
  return std::move(EstimateBatch({request}).front());
}

Result<EstimateReply> RemoteEndpoint::ExactAnswer(
    const ExactAnswerRequest& request) {
  return std::move(EstimateBatch({request}).front());
}

std::vector<Result<EstimateReply>> RemoteEndpoint::EstimateBatch(
    const std::vector<EstimateItem>& items) {
  obs::ScopedSpan span("rpc", "rpc/estimate_batch");
  std::vector<Call> calls(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (const auto* req = std::get_if<ApproximateRequest>(&items[i])) {
      calls[i].method = RpcMethod::kApproximate;
      EncodeApproximateRequest(*req, &calls[i].payload);
    } else if (const auto* req = std::get_if<ExactAnswerRequest>(&items[i])) {
      calls[i].method = RpcMethod::kExactAnswer;
      EncodeExactAnswerRequest(*req, &calls[i].payload);
    } else {
      calls[i].method = RpcMethod::kEndQuery;
      EncodeEndQueryRequest(std::get<EndQueryRequest>(items[i]),
                            &calls[i].payload);
    }
  }
  std::vector<Result<RpcFrame>> frames = BatchRoundTrip(calls);
  std::vector<Result<EstimateReply>> replies;
  replies.reserve(frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    if (!frames[i].ok()) {
      replies.push_back(frames[i].status());
    } else if (calls[i].method == RpcMethod::kEndQuery) {
      replies.push_back(EstimateReply{});  // The empty ack.
    } else {
      replies.push_back(DecodeReply(*frames[i], DecodeEstimateReply));
    }
  }
  return replies;
}

Result<ExactScanReply> RemoteEndpoint::ExactFullScan(
    const ExactScanRequest& request) {
  obs::ScopedSpan span("rpc", "rpc/exact_full_scan");
  ByteWriter payload;
  EncodeExactScanRequest(request, &payload);
  // The first attempt fails fast on an already-poisoned connection.
  std::unique_lock<std::mutex> lock(mutex_);
  Result<RpcFrame> first = SingleExchangeLocked(RpcMethod::kExactFullScan,
                                                payload);
  if (first.ok()) return DecodeReply(*first, DecodeExactScanReply);
  // Application-level refusals (invalid query, ...) leave the stream in
  // sync; only transport errors poison, and only those warrant a retry.
  if (!broken_) return first.status();
  // One automatic reconnect + retry: ExactFullScan is documented
  // idempotent — no session, no provider RNG — so replaying it after a
  // transport error cannot skew any later query's noise stream. After
  // the retry fails the transport Status surfaces to the caller. The
  // backoff sleep and the dial itself happen with the mutex released
  // (see Reconnect), so concurrent calls never stall behind them.
  FEDAQP_RETURN_IF_ERROR(Reconnect(lock));
  FEDAQP_ASSIGN_OR_RETURN(RpcFrame reply,
                          SingleExchangeLocked(RpcMethod::kExactFullScan,
                                               payload));
  return DecodeReply(reply, DecodeExactScanReply);
}

void RemoteEndpoint::EndQuery(uint64_t query_id) {
  EstimateBatch({EndQueryRequest{query_id}});  // Best-effort.
}

void RemoteEndpoint::IssueAsync(std::function<void()> call) {
  std::lock_guard<std::mutex> lock(dispatch_mutex_);
  // Started lazily so endpoints that never see a task graph pay no
  // thread.
  if (dispatch_ == nullptr) dispatch_ = std::make_unique<ThreadPool>(1);
  dispatch_->Submit(std::move(call));
}

bool RemoteEndpoint::dispatch_started() const {
  std::lock_guard<std::mutex> lock(dispatch_mutex_);
  return dispatch_ != nullptr;
}

uint64_t RemoteEndpoint::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retired_bytes_sent_ + conn_.bytes_sent();
}

uint64_t RemoteEndpoint::bytes_received() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retired_bytes_received_ + conn_.bytes_received();
}

uint64_t RemoteEndpoint::batch_overhead_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return batch_overhead_bytes_;
}

}  // namespace fedaqp
