#ifndef FEDAQP_RPC_REMOTE_ENDPOINT_H_
#define FEDAQP_RPC_REMOTE_ENDPOINT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/endpoint.h"
#include "exec/thread_pool.h"
#include "rpc/transport.h"

namespace fedaqp {

/// ProviderEndpoint client over one framed TCP connection to an
/// RpcProviderServer. Connect() performs the kInfo handshake, so info()
/// is available immediately and the orchestrator's shared-S/schema
/// validation works unchanged over the wire.
///
/// Batch calls: OpenBatch and EstimateBatch send their items as ONE
/// kBatch exchange — complete standard frames concatenated in the
/// payload, answered by one kBatch reply carrying the sub-replies in
/// request order (split into several exchanges only if the requests
/// outgrow the frame payload cap). A batch of one item goes out as a
/// plain frame, byte-identical to the per-query call, so a strictly
/// sequential caller's wire traffic never pays for batching; the
/// per-query calls are exactly such batches of one.
///
/// Byte accounting: the per-message protocol bytes the coordinator
/// charges to SimNetwork are a pure function of each message, so charges
/// are the same whether or not a call travelled inside a batch. The only
/// real bytes batching adds is one outer frame header per batched send
/// and one per batched reply; batch_overhead_bytes() reports exactly
/// those, so
///   bytes_moved == protocol_charged + batch_overhead_bytes
/// holds to the byte (pinned by tests/rpc_loopback_test.cc and
/// tests/rpc_batch_test.cc).
///
/// After a transport error the connection is poisoned: sessionful calls
/// fail with FailedPrecondition instead of desynchronizing the frame
/// stream (replaying Open would re-key a session's noise stream — never
/// auto-retried). When a batched exchange fails in transport, every item
/// in it reports the failure. The stateless `ExactFullScan` is the one
/// exception: it is documented idempotent (no session, no provider RNG),
/// so a poisoned or mid-call-broken endpoint performs ONE automatic
/// reconnect — with a bounded backoff that doubles per consecutive
/// reconnect failure — and retries the scan once; if that also fails,
/// the transport Status is surfaced to the caller. A successful
/// reconnect heals the endpoint for sessionful traffic too (fresh
/// sessions only).
///
/// IssueAsync (the task-graph scheduler's issue/complete pair) runs the
/// issued closures on one per-connection dispatch thread, started
/// lazily on first use: a scheduler worker only enqueues the call and
/// moves on, so one slow provider or network path never stalls the
/// coordinator's task graph. One thread is enough: the server handles a
/// connection's frames one at a time, and a provider-major stage already
/// puts a whole group's calls into one exchange. Closures run exactly
/// once and are drained (never dropped) at destruction.
///
/// ConfigureScanSharding keeps the base-class no-op on purpose: the
/// server owns its workers, a coordinator's pool cannot reach across the
/// wire.
class RemoteEndpoint : public ProviderEndpoint {
 public:
  static Result<std::shared_ptr<RemoteEndpoint>> Connect(
      const std::string& host, uint16_t port);

  /// Connects every "host:port" entry, in order.
  static Result<std::vector<std::shared_ptr<ProviderEndpoint>>> ConnectAll(
      const std::vector<std::string>& host_ports);

  const EndpointInfo& info() const override { return info_; }

  Result<CoverReply> Cover(const CoverRequest& request) override;
  Result<SummaryReply> PublishSummary(const SummaryRequest& request) override;
  /// One kOpen round trip instead of the default's kCover + kPublishSummary.
  Result<OpenReply> Open(const OpenRequest& request) override;
  /// One exchange of kOpen sub-frames (see class doc).
  std::vector<Result<OpenReply>> OpenBatch(
      const std::vector<OpenRequest>& requests) override;
  Result<EstimateReply> Approximate(const ApproximateRequest& request) override;
  Result<EstimateReply> ExactAnswer(const ExactAnswerRequest& request) override;
  /// One exchange of kApproximate / kExactAnswer / kEndQuery sub-frames.
  std::vector<Result<EstimateReply>> EstimateBatch(
      const std::vector<EstimateItem>& items) override;
  Result<ExactScanReply> ExactFullScan(const ExactScanRequest& request) override;

  /// Best-effort over the wire: the interface returns void, so transport
  /// errors are swallowed (the server's sessions die with the provider
  /// process anyway; an unreachable server has nothing left to release).
  void EndQuery(uint64_t query_id) override;

  /// Parks `call` on this connection's dispatch thread (see class doc).
  void IssueAsync(std::function<void()> call) override;

  /// True once the lazily created dispatch thread exists. Diagnostic: a
  /// workload cancelled before admission must leave this false (no graph
  /// ever issued work to this connection).
  bool dispatch_started() const;

  /// Real traffic odometers of this endpoint's lifetime traffic
  /// (handshakes and retired reconnected connections included), for
  /// checking SimNetwork's charges against actual bytes. Take them
  /// between queries, not mid-call.
  uint64_t bytes_sent() const;
  uint64_t bytes_received() const;

  /// The exact wire-byte cost of batching: one outer frame header per
  /// kBatch send plus one per kBatch reply, the only real bytes the
  /// per-message protocol charges do not cover. Batches are counted
  /// process-wide, in the registry's `rpc.doorbell_batches` (kBatch
  /// exchanges) and `rpc.coalesced_calls` (the calls inside them).
  uint64_t batch_overhead_bytes() const;

 private:
  /// One encoded request of an exchange.
  struct Call {
    RpcMethod method = RpcMethod::kError;
    ByteWriter payload;
  };

  RemoteEndpoint(TcpConnection conn, EndpointInfo info, std::string host,
                 uint16_t port);

  /// Dials host:port and runs the kInfo handshake.
  static Result<std::pair<TcpConnection, EndpointInfo>> Handshake(
      const std::string& host, uint16_t port);

  /// One plain request/reply exchange under the wire lock; returns the
  /// unwrapped reply.
  Result<RpcFrame> RoundTrip(RpcMethod method, const ByteWriter& payload);

  /// Sends/receives exactly one plain frame on the wire and unwraps the
  /// reply (kError -> Status, method echo check). Caller holds mutex_.
  Result<RpcFrame> SingleExchangeLocked(RpcMethod method,
                                        const ByteWriter& payload);

  /// Sends `calls` as kBatch exchanges (a lone call as a plain frame)
  /// under the wire lock; one unwrapped reply per call, in order.
  std::vector<Result<RpcFrame>> BatchRoundTrip(const std::vector<Call>& calls);

  /// Validates and unwraps one reply frame against the request method it
  /// must echo. Transport-level trust violations set broken_.
  Result<RpcFrame> UnwrapReplyLocked(RpcFrame reply, RpcMethod method);

  /// Replaces the poisoned connection with a freshly handshaken one
  /// (identity must match the original handshake). Takes `lock` (held on
  /// mutex_) and RELEASES it around both the backoff sleep and the
  /// blocking dial+handshake — an unreachable peer must not stall
  /// concurrent calls (which fail fast on broken_) or the byte odometers
  /// for the kernel's connect timeout. Reacquires before swapping; a
  /// connection another thread healed in the meantime is kept.
  Status Reconnect(std::unique_lock<std::mutex>& lock);

  /// Guards the wire (conn_, broken_, reconnect bookkeeping, odometers).
  mutable std::mutex mutex_;
  TcpConnection conn_;
  bool broken_ = false;
  EndpointInfo info_;
  std::string host_;
  uint16_t port_ = 0;
  /// Consecutive failed reconnects; drives the backoff and resets on
  /// success.
  int reconnect_failures_ = 0;
  /// Bytes moved by connections already replaced via reconnect.
  uint64_t retired_bytes_sent_ = 0;
  uint64_t retired_bytes_received_ = 0;

  /// Written under mutex_ together with the odometer-bearing exchange,
  /// so odometers and overhead snapshot consistently between queries.
  uint64_t batch_overhead_bytes_ = 0;

  /// Lazily started dispatch thread backing IssueAsync (guarded by
  /// dispatch_mutex_, not mutex_: enqueueing must never wait behind an
  /// in-flight round-trip). ThreadPool's destructor drains outstanding
  /// tasks before joining, which is exactly the never-drop-a-completion
  /// contract IssueAsync requires.
  mutable std::mutex dispatch_mutex_;
  std::unique_ptr<ThreadPool> dispatch_;
};

}  // namespace fedaqp

#endif  // FEDAQP_RPC_REMOTE_ENDPOINT_H_
