#ifndef FEDAQP_RPC_SERVER_H_
#define FEDAQP_RPC_SERVER_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/in_process_endpoint.h"
#include "exec/thread_pool.h"
#include "rpc/transport.h"

namespace fedaqp {

struct RpcServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (see port()).
  uint16_t port = 0;
  /// Request-handler workers on the server's ThreadPool. Unlike the old
  /// worker-per-connection design, a worker is occupied only while it is
  /// actually dispatching a request body into the provider — socket
  /// readiness is multiplexed on the event loop — so a few workers serve
  /// hundreds of idle or slow connections.
  size_t num_workers = 4;
  /// Cap on concurrently open query sessions per connection: an
  /// untrusted wire client looping Open (or Cover) without ever sending
  /// the estimate call that ends a session would otherwise grow the
  /// provider's session map without bound. Well over any real
  /// coordinator's in-flight batch size.
  size_t max_sessions_per_connection = 1024;
  /// Disconnect a connection whose next request does not arrive within
  /// this many seconds (<= 0 disables). Idle sockets no longer pin a
  /// worker, but they still hold a fd and session state; coordinators
  /// idling longer than this must reconnect.
  double idle_timeout_seconds = 300.0;
  /// Test knob: shrink each accepted socket's kernel send buffer
  /// (SO_SNDBUF) so partial-write (slow peer) paths become reachable at
  /// tiny payload sizes. <= 0 leaves the kernel default.
  int send_buffer_bytes = 0;
};

/// Hosts one DataProvider behind the wire protocol with a nonblocking
/// epoll event loop: one readiness thread owns ALL socket IO (accept,
/// reads, writes), and a small ThreadPool dispatches decoded request
/// frames into an InProcessEndpoint wrapped around the provider — the
/// exact adapter the in-process engine uses, so session semantics, RNG
/// keying, and answers are identical over the wire by construction.
///
/// Event-loop architecture: the loop thread epolls the listener, an
/// eventfd doorbell, and every live connection. Readable bytes are
/// appended to a per-connection input buffer and split into frames;
/// complete frames go to the connection's inbox and a pool worker is
/// dispatched (at most one per connection at a time, so one connection's
/// requests stay in order). The worker appends encoded reply frames to
/// the connection's output buffer and rings the eventfd; only the loop
/// thread flushes output buffers to sockets, arming EPOLLOUT while a
/// peer's receive window is full. A slow or stalled reader therefore
/// never blocks a worker or any other connection. kBatch frames (a
/// RemoteEndpoint's OpenBatch / EstimateBatch) are unpacked, dispatched
/// sub-frame by sub-frame in order, and answered with a single kBatch
/// reply carrying the sub-replies in request order.
///
/// Session lifecycle: kOpen (or kCover) opens a session and the kApproximate
/// or kExactAnswer request that follows ends it, so a query's two round
/// trips leave nothing behind; kEndQuery is needed only for a session
/// whose estimate will never be asked for (a cancelled or failed query).
/// Session ids are namespaced per connection — each request's query_id
/// is rewritten to MixSeeds(connection id, query_id) before dispatch —
/// so independent coordinators, which all number their queries from 1,
/// cannot collide on or interfere with each other's sessions. A
/// connection's surviving sessions are released when it closes (sessions
/// are connection-scoped; a coordinator that dies mid-query leaks
/// nothing), and max_sessions_per_connection bounds what a misbehaving
/// client can hold open. Reproducibility follows the ProviderEndpoint
/// contract: answers are bit-identical as long as each coordinator
/// issues its calls in a deterministic order (noise is keyed by
/// (provider seed, session nonce), never by arrival time or session id).
///
/// The provider must outlive the server. Stop() (idempotent, also run by
/// the destructor) wakes and joins the event loop, drains the worker
/// pool, releases every leftover session, and closes all sockets.
class RpcProviderServer {
 public:
  static Result<std::unique_ptr<RpcProviderServer>> Start(
      DataProvider* provider, const RpcServerOptions& options = {});

  ~RpcProviderServer() { Stop(); }

  RpcProviderServer(const RpcProviderServer&) = delete;
  RpcProviderServer& operator=(const RpcProviderServer&) = delete;

  /// The bound port (resolves option port 0 to the actual ephemeral one).
  uint16_t port() const { return port_; }

  void Stop();

  /// Query sessions currently open across all connections (diagnostic:
  /// must drain to zero once every coordinator finishes its queries or
  /// disconnects).
  size_t num_open_sessions() const { return endpoint_.num_open_sessions(); }

  /// Request frames received with `method`, over the server's lifetime.
  /// Each sub-frame of a kBatch counts under its own method (and the
  /// container under kBatch).
  uint64_t frames_received(RpcMethod method) const;

 private:
  /// Per-connection event-loop state. The loop thread owns the socket,
  /// the input buffer, and the epoll registration; `m` guards the
  /// worker-visible half (inbox, output buffer, processing/closing
  /// flags). See server.cc for the full ownership table.
  struct EventConnection;

  RpcProviderServer(DataProvider* provider, TcpListener listener,
                    const RpcServerOptions& options);

  void EventLoop();
  void AcceptReady();
  void ReadReady(const std::shared_ptr<EventConnection>& c);
  /// Splits c->inbuf into complete frames, queues them, and dispatches a
  /// worker if none is active for this connection.
  void ParseFrames(const std::shared_ptr<EventConnection>& c);
  /// Flushes as much buffered output as the socket accepts and re-arms
  /// the epoll interest set (EPOLLOUT only while output is pending).
  void FlushAndRearm(const std::shared_ptr<EventConnection>& c);
  /// Transport failure: no more reads, writes, or processing for this
  /// connection. Drops queued frames so an active worker stops at its
  /// next inbox check. Loop thread only.
  void MarkDead(EventConnection* c);
  /// Destroys the connection if it is finished — dead or closing, with
  /// no worker active and (unless dead) nothing left to process or
  /// flush. Releases its sessions.
  void MaybeDestroy(uint64_t conn_id);
  /// Worker-side: drains the connection's inbox one frame at a time,
  /// appending replies to its output buffer. Rings the doorbell between
  /// frames only while more are queued, and once at the end, after
  /// clearing `processing` with the last reply's append.
  void ProcessInbox(std::shared_ptr<EventConnection> c);
  /// Marks the connection dirty and wakes the event loop (worker side).
  void NotifyDirty(uint64_t conn_id);

  /// Handles one request frame, appending the complete reply frame(s) to
  /// `out`; returns false when the connection must close (stream
  /// confusion). `conn_id` namespaces session ids; `live_sessions`
  /// tracks this connection's open (namespaced) sessions for the cap and
  /// the close-time cleanup.
  bool HandleFrame(const RpcFrame& frame, uint64_t conn_id,
                   std::unordered_set<uint64_t>* live_sessions,
                   ByteWriter* out);

  InProcessEndpoint endpoint_;
  /// Per-method request-frame counts, indexed by method id.
  std::array<std::atomic<uint64_t>, 16> frames_by_method_{};
  TcpListener listener_;
  uint16_t port_ = 0;
  size_t max_sessions_per_connection_ = 1024;
  double idle_timeout_seconds_ = 300.0;
  int send_buffer_bytes_ = 0;
  std::unique_ptr<ThreadPool> workers_;
  std::thread loop_thread_;

  int epoll_fd_ = -1;
  /// Worker -> loop doorbell (eventfd): rung after replies are buffered
  /// so the loop flushes them promptly, and by Stop().
  int wake_fd_ = -1;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;

  /// Live connections, keyed by their epoll tag. Touched ONLY by the
  /// loop thread (and by Stop after joining it); workers hold shared_ptr
  /// copies captured at dispatch, never the map.
  std::unordered_map<uint64_t, std::shared_ptr<EventConnection>> connections_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wake eventfd.

  /// Connections with freshly buffered output or finished processing;
  /// drained by the loop on each doorbell ring.
  std::mutex dirty_mutex_;
  std::vector<uint64_t> dirty_;
};

}  // namespace fedaqp

#endif  // FEDAQP_RPC_SERVER_H_
