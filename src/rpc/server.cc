#include "rpc/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <utility>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/wire.h"

namespace fedaqp {

/// Ownership table:
///   loop thread only ..... conn (socket IO), inbuf, last_activity,
///                          armed_events, dead
///   under m .............. inbox, processing, closing, outbuf, out_off
///   worker (exclusive) ... live_sessions while processing is true; the
///                          loop reads it only after observing
///                          !processing under m (teardown), so the mutex
///                          hand-off orders the accesses.
struct RpcProviderServer::EventConnection {
  EventConnection(TcpConnection connection, uint64_t conn_id)
      : conn(std::move(connection)), id(conn_id) {}

  TcpConnection conn;
  const uint64_t id;
  /// Raw received bytes not yet split into frames.
  std::vector<uint8_t> inbuf;
  std::chrono::steady_clock::time_point last_activity =
      std::chrono::steady_clock::now();
  /// Events currently registered with epoll (avoids redundant MODs).
  uint32_t armed_events = 0;
  /// Transport failure: destroy without flushing.
  bool dead = false;

  std::mutex m;
  /// Complete frames awaiting a worker, in arrival order.
  std::deque<RpcFrame> inbox;
  /// True while a worker is draining the inbox (at most one at a time,
  /// which is what keeps one connection's requests in order).
  bool processing = false;
  /// No more reads; finish processing + flushing, then destroy.
  bool closing = false;
  /// Encoded reply bytes not yet accepted by the socket.
  std::vector<uint8_t> outbuf;
  size_t out_off = 0;

  /// This connection's open sessions, in namespaced (rewritten) ids.
  std::unordered_set<uint64_t> live_sessions;
};

namespace {

const char* RpcMethodName(RpcMethod method) {
  switch (method) {
    case RpcMethod::kInfo:
      return "info";
    case RpcMethod::kCover:
      return "cover";
    case RpcMethod::kPublishSummary:
      return "publish_summary";
    case RpcMethod::kApproximate:
      return "approximate";
    case RpcMethod::kExactAnswer:
      return "exact_answer";
    case RpcMethod::kExactFullScan:
      return "exact_full_scan";
    case RpcMethod::kEndQuery:
      return "end_query";
    case RpcMethod::kBatch:
      return "batch";
    case RpcMethod::kLedgerRegister:
      return "ledger_register";
    case RpcMethod::kLedgerCharge:
      return "ledger_charge";
    case RpcMethod::kLedgerRefund:
      return "ledger_refund";
    case RpcMethod::kLedgerSaving:
      return "ledger_saving";
    case RpcMethod::kLedgerQuery:
      return "ledger_query";
    case RpcMethod::kOpen:
      return "open";
    case RpcMethod::kError:
      return "error";
  }
  return "?";
}

obs::Counter& ServerFramesCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("server.frames");
  return *c;
}

/// Appends a complete kError frame carrying `status` to `out`. Returns
/// true: a frame-level error reply leaves the stream in sync, so the
/// connection continues.
bool AppendError(ByteWriter* out, const Status& status) {
  ByteWriter payload;
  EncodeStatusPayload(status, &payload);
  EncodeFrameHeader(RpcMethod::kError, static_cast<uint32_t>(payload.size()),
                    out);
  out->PutRaw(payload.bytes().data(), payload.size());
  return true;
}

/// Appends a complete reply frame for `result`: its value encoded with
/// `encode` under the request's method id, or its error as kError.
template <typename T>
bool AppendReply(ByteWriter* out, RpcMethod method, const Result<T>& result,
                 void (*encode)(const T&, ByteWriter*)) {
  if (!result.ok()) return AppendError(out, result.status());
  ByteWriter payload;
  encode(*result, &payload);
  EncodeFrameHeader(method, static_cast<uint32_t>(payload.size()), out);
  out->PutRaw(payload.bytes().data(), payload.size());
  return true;
}

/// Appends an empty-payload reply frame (the kEndQuery ack).
bool AppendEmptyReply(ByteWriter* out, RpcMethod method) {
  EncodeFrameHeader(method, 0, out);
  return true;
}

}  // namespace

RpcProviderServer::RpcProviderServer(DataProvider* provider,
                                     TcpListener listener,
                                     const RpcServerOptions& options)
    : endpoint_(provider),
      listener_(std::move(listener)),
      port_(listener_.port()),
      max_sessions_per_connection_(options.max_sessions_per_connection > 0
                                       ? options.max_sessions_per_connection
                                       : 1),
      idle_timeout_seconds_(options.idle_timeout_seconds),
      send_buffer_bytes_(options.send_buffer_bytes),
      workers_(std::make_unique<ThreadPool>(
          options.num_workers > 0 ? options.num_workers : 1)) {}

Result<std::unique_ptr<RpcProviderServer>> RpcProviderServer::Start(
    DataProvider* provider, const RpcServerOptions& options) {
  if (provider == nullptr) {
    return Status::InvalidArgument("rpc server: null provider");
  }
  FEDAQP_ASSIGN_OR_RETURN(TcpListener listener,
                          TcpListener::Listen(options.port));
  // Not make_unique: the constructor is private.
  std::unique_ptr<RpcProviderServer> server(
      new RpcProviderServer(provider, std::move(listener), options));
  server->epoll_fd_ = ::epoll_create1(0);
  if (server->epoll_fd_ < 0) {
    return Status::Internal(std::string("rpc server: epoll_create1 failed: ") +
                            std::strerror(errno));
  }
  server->wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (server->wake_fd_ < 0) {
    return Status::Internal(std::string("rpc server: eventfd failed: ") +
                            std::strerror(errno));
  }
  server->listener_.SetNonBlocking();
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // Listener tag.
  if (::epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->listener_.fd(),
                  &ev) != 0) {
    return Status::Internal(std::string("rpc server: epoll_ctl failed: ") +
                            std::strerror(errno));
  }
  ev.data.u64 = 1;  // Doorbell tag.
  if (::epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->wake_fd_, &ev) !=
      0) {
    return Status::Internal(std::string("rpc server: epoll_ctl failed: ") +
                            std::strerror(errno));
  }
  server->loop_thread_ = std::thread([s = server.get()] { s->EventLoop(); });
  return server;
}

void RpcProviderServer::NotifyDirty(uint64_t conn_id) {
  {
    std::lock_guard<std::mutex> lock(dirty_mutex_);
    dirty_.push_back(conn_id);
  }
  uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; best-effort.
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

void RpcProviderServer::EventLoop() {
  std::vector<struct epoll_event> events(64);
  while (!stopping_.load(std::memory_order_acquire)) {
    // Bounded wait only when an idle sweep needs to run periodically;
    // otherwise the doorbell and socket readiness are the only wakers.
    const int timeout_ms = idle_timeout_seconds_ > 0 ? 1000 : -1;
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // Fatal epoll failure: Stop() still cleans everything up.
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        AcceptReady();
        continue;
      }
      if (tag == 1) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        std::vector<uint64_t> dirty;
        {
          std::lock_guard<std::mutex> lock(dirty_mutex_);
          dirty.swap(dirty_);
        }
        for (uint64_t id : dirty) {
          auto it = connections_.find(id);
          if (it == connections_.end()) continue;
          FlushAndRearm(it->second);
          MaybeDestroy(id);
        }
        continue;
      }
      auto it = connections_.find(tag);
      if (it == connections_.end()) continue;
      std::shared_ptr<EventConnection> c = it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        MarkDead(c.get());
        MaybeDestroy(tag);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) ReadReady(c);
      if ((events[i].events & EPOLLOUT) != 0) FlushAndRearm(c);
      MaybeDestroy(tag);
    }
    if (idle_timeout_seconds_ > 0) {
      const auto now = std::chrono::steady_clock::now();
      std::vector<uint64_t> expired;
      for (auto& kv : connections_) {
        EventConnection* c = kv.second.get();
        const double idle =
            std::chrono::duration<double>(now - c->last_activity).count();
        if (idle < idle_timeout_seconds_) continue;
        std::lock_guard<std::mutex> lock(c->m);
        if (c->closing) continue;
        // Same surface the blocking server's SO_RCVTIMEO produced: the
        // peer gets a timeout error, then the connection goes away.
        ByteWriter out;
        AppendError(&out, Status::Internal("rpc: receive timed out"));
        c->outbuf.insert(c->outbuf.end(), out.bytes().begin(),
                         out.bytes().end());
        c->closing = true;
        expired.push_back(kv.first);
      }
      for (uint64_t id : expired) {
        auto it = connections_.find(id);
        if (it == connections_.end()) continue;
        FlushAndRearm(it->second);
        MaybeDestroy(id);
      }
    }
  }
}

void RpcProviderServer::AcceptReady() {
  for (;;) {
    Result<TcpConnection> accepted = listener_.TryAccept();
    if (!accepted.ok()) return;  // Backlog empty (or listener dying).
    accepted->SetNonBlocking();
    if (send_buffer_bytes_ > 0) {
      accepted->SetSendBufferBytes(send_buffer_bytes_);
    }
    const uint64_t id = next_conn_id_++;
    auto c = std::make_shared<EventConnection>(std::move(accepted).value(), id);
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c->conn.fd(), &ev) != 0) {
      continue;  // Connection dropped; its destructor closes the socket.
    }
    c->armed_events = EPOLLIN;
    connections_.emplace(id, std::move(c));
  }
}

void RpcProviderServer::ReadReady(const std::shared_ptr<EventConnection>& c) {
  bool closing;
  {
    std::lock_guard<std::mutex> lock(c->m);
    closing = c->closing;
  }
  if (closing) {
    // Draining writes only; reads are over. Still rearm so a stale
    // EPOLLIN interest gets dropped instead of spinning.
    FlushAndRearm(c);
    return;
  }
  bool eof = false;
  for (;;) {
    Result<size_t> n = c->conn.ReadAvailable(&c->inbuf, &eof);
    if (!n.ok()) {
      MarkDead(c.get());
      return;
    }
    if (*n == 0) break;  // Would block, or orderly shutdown (eof set).
    c->last_activity = std::chrono::steady_clock::now();
  }
  ParseFrames(c);
  if (eof) {
    std::lock_guard<std::mutex> lock(c->m);
    if (!c->closing) {
      if (!c->inbuf.empty()) {
        // Peer closed mid-frame: same error the blocking reader raised.
        ByteWriter out;
        AppendError(&out,
                    Status::OutOfRange("rpc: connection closed mid-frame"));
        c->outbuf.insert(c->outbuf.end(), out.bytes().begin(),
                         out.bytes().end());
      }
      c->closing = true;
    }
  }
  FlushAndRearm(c);
}

void RpcProviderServer::ParseFrames(const std::shared_ptr<EventConnection>& c) {
  size_t consumed = 0;
  std::vector<RpcFrame> frames;
  Status parse_error = Status::OK();
  while (c->inbuf.size() - consumed >= kFrameHeaderBytes) {
    ByteReader header_reader(c->inbuf.data() + consumed, kFrameHeaderBytes);
    Result<FrameHeader> header = DecodeFrameHeader(&header_reader);
    if (!header.ok()) {
      // Bad magic / version / oversized length: the stream position is
      // untrusted from here on — best-effort report and drop the link.
      parse_error = header.status();
      break;
    }
    if (c->inbuf.size() - consumed - kFrameHeaderBytes < header->payload_size) {
      break;  // Frame not fully received yet.
    }
    RpcFrame frame;
    frame.method = header->method;
    const uint8_t* payload = c->inbuf.data() + consumed + kFrameHeaderBytes;
    frame.payload.assign(payload, payload + header->payload_size);
    frames.push_back(std::move(frame));
    consumed += kFrameHeaderBytes + header->payload_size;
  }
  if (consumed > 0) {
    c->inbuf.erase(c->inbuf.begin(),
                   c->inbuf.begin() + static_cast<ptrdiff_t>(consumed));
  }
  if (frames.empty() && parse_error.ok()) return;
  bool dispatch = false;
  {
    std::lock_guard<std::mutex> lock(c->m);
    for (RpcFrame& f : frames) c->inbox.push_back(std::move(f));
    if (!parse_error.ok()) {
      ByteWriter out;
      AppendError(&out, parse_error);
      c->outbuf.insert(c->outbuf.end(), out.bytes().begin(), out.bytes().end());
      c->closing = true;
      c->inbuf.clear();
    }
    if (!c->processing && !c->inbox.empty()) {
      c->processing = true;
      dispatch = true;
    }
  }
  if (dispatch) {
    workers_->Submit([this, c] { ProcessInbox(c); });
  }
}

void RpcProviderServer::ProcessInbox(std::shared_ptr<EventConnection> c) {
  std::unique_lock<std::mutex> lock(c->m);
  while (!c->inbox.empty()) {
    RpcFrame frame = std::move(c->inbox.front());
    c->inbox.pop_front();
    lock.unlock();
    ByteWriter out;
    const bool keep = HandleFrame(frame, c->id, &c->live_sessions, &out);
    lock.lock();
    if (out.size() > 0) {
      c->outbuf.insert(c->outbuf.end(), out.bytes().begin(), out.bytes().end());
    }
    if (!keep) {
      c->closing = true;
      c->inbox.clear();  // The stream is confused; drop queued frames.
    }
    if (!c->inbox.empty()) {
      // More frames queued behind this one: let the loop flush this
      // reply now instead of after the whole backlog.
      lock.unlock();
      NotifyDirty(c->id);
      lock.lock();
    }
  }
  // The empty-check and the flag-clear share the critical section of the
  // last reply's append: a reader that queues a frame either sees
  // processing==true (we looped) or the cleared flag (it dispatches a
  // fresh worker). One ring then flushes the reply AND lets the loop
  // re-evaluate teardown, so a lone request costs one eventfd write.
  c->processing = false;
  lock.unlock();
  NotifyDirty(c->id);
}

void RpcProviderServer::MarkDead(EventConnection* c) {
  c->dead = true;
  std::lock_guard<std::mutex> lock(c->m);
  c->closing = true;
  c->inbox.clear();
}

void RpcProviderServer::FlushAndRearm(
    const std::shared_ptr<EventConnection>& c) {
  if (c->dead) return;
  bool pending;
  bool closing;
  {
    std::lock_guard<std::mutex> lock(c->m);
    while (c->out_off < c->outbuf.size()) {
      Result<size_t> n = c->conn.WriteSome(c->outbuf.data() + c->out_off,
                                           c->outbuf.size() - c->out_off);
      if (!n.ok()) {
        c->dead = true;
        c->closing = true;
        c->inbox.clear();
        return;
      }
      if (*n == 0) break;  // Peer's receive window is full.
      c->out_off += *n;
    }
    if (c->out_off == c->outbuf.size()) {
      c->outbuf.clear();
      c->out_off = 0;
    }
    pending = c->out_off < c->outbuf.size();
    closing = c->closing;
  }
  const uint32_t want = (closing ? 0u : static_cast<uint32_t>(EPOLLIN)) |
                        (pending ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  if (want != c->armed_events) {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = want;
    ev.data.u64 = c->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->conn.fd(), &ev) == 0) {
      c->armed_events = want;
    }
  }
}

void RpcProviderServer::MaybeDestroy(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  EventConnection* c = it->second.get();
  bool finished;
  {
    std::lock_guard<std::mutex> lock(c->m);
    // !processing even when dead: a worker mid-dispatch still owns
    // live_sessions; it finishes (MarkDead emptied the inbox), flips the
    // flag, and rings the doorbell, which re-runs this check.
    finished = !c->processing &&
               (c->dead || (c->closing && c->inbox.empty() &&
                            c->out_off == c->outbuf.size()));
  }
  if (!finished) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->conn.fd(), nullptr);
  // Sessions are connection-scoped: whatever the peer left open (it
  // crashed mid-query, or never sent the estimate call) is released
  // with the connection, so dead coordinators cannot leak provider
  // memory. Safe without c->m: a finished connection has no worker
  // (observed !processing above).
  for (uint64_t session : c->live_sessions) endpoint_.EndQuery(session);
  connections_.erase(it);  // Destructor closes the socket. Workers'
                           // shared_ptr copies (if any, for a dead
                           // connection) keep the struct alive.
}

bool RpcProviderServer::HandleFrame(const RpcFrame& frame, uint64_t conn_id,
                                    std::unordered_set<uint64_t>* live_sessions,
                                    ByteWriter* out) {
  // Session ids are namespaced per connection: every coordinator numbers
  // its queries from 1, so the raw ids of independent coordinators
  // collide. The splitmix64 mix keeps the rewritten key space
  // collision-free in practice and deterministic per (connection, id).
  const auto namespaced = [conn_id](uint64_t query_id) {
    return MixSeeds(conn_id, query_id);
  };
  ServerFramesCounter().Add();
  frames_by_method_[static_cast<uint8_t>(frame.method)].fetch_add(
      1, std::memory_order_relaxed);
  obs::ScopedSpan span("server", [&frame] {
    return std::string("server/") + RpcMethodName(frame.method);
  });
  // Admission of a session-opening request (kCover, kOpen). The
  // in-process engine validates queries coordinator-side; a wire client
  // is untrusted, so re-validate before the provider indexes rows with
  // the query's dimension indexes. The cap bounds what a client that
  // never sends its estimates (or EndQuery) can hold open.
  const auto admit_session = [&](const CoverRequest& request) -> Status {
    FEDAQP_RETURN_IF_ERROR(request.query.Validate(endpoint_.info().schema));
    if (live_sessions->count(request.query_id) == 0 &&
        live_sessions->size() >= max_sessions_per_connection_) {
      return Status::FailedPrecondition(
          "rpc: too many open sessions on this connection (each needs "
          "its estimate call or an EndQuery to close)");
    }
    return Status::OK();
  };
  ByteReader reader(frame.payload);
  switch (frame.method) {
    case RpcMethod::kInfo: {
      Status consumed = ExpectConsumed(reader);
      if (!consumed.ok()) return AppendError(out, consumed);
      ByteWriter payload;
      EncodeEndpointInfo(endpoint_.info(), &payload);
      EncodeFrameHeader(RpcMethod::kInfo, static_cast<uint32_t>(payload.size()),
                        out);
      out->PutRaw(payload.bytes().data(), payload.size());
      return true;
    }
    case RpcMethod::kCover: {
      Result<CoverRequest> req = DecodeCoverRequest(&reader);
      if (req.ok()) {
        Status consumed = ExpectConsumed(reader);
        if (!consumed.ok()) return AppendError(out, consumed);
        CoverRequest scoped = *req;
        scoped.query_id = namespaced(req->query_id);
        span.set_session(scoped.query_id);
        Status admitted = admit_session(scoped);
        if (!admitted.ok()) return AppendError(out, admitted);
        Result<CoverReply> reply = endpoint_.Cover(scoped);
        if (reply.ok()) live_sessions->insert(scoped.query_id);
        return AppendReply(out, frame.method, reply, EncodeCoverReply);
      }
      return AppendError(out, req.status());
    }
    case RpcMethod::kOpen: {
      Result<OpenRequest> req = DecodeOpenRequest(&reader);
      if (req.ok()) {
        Status consumed = ExpectConsumed(reader);
        if (!consumed.ok()) return AppendError(out, consumed);
        OpenRequest scoped = *req;
        scoped.cover.query_id = namespaced(req->cover.query_id);
        span.set_session(scoped.cover.query_id);
        Status admitted = admit_session(scoped.cover);
        if (!admitted.ok()) return AppendError(out, admitted);
        // A failed Open leaves no session at the endpoint (see
        // ProviderEndpoint::Open), including one it replaced.
        Result<OpenReply> reply = endpoint_.Open(scoped);
        if (reply.ok()) {
          live_sessions->insert(scoped.cover.query_id);
        } else {
          live_sessions->erase(scoped.cover.query_id);
        }
        return AppendReply(out, frame.method, reply, EncodeOpenReply);
      }
      return AppendError(out, req.status());
    }
    case RpcMethod::kPublishSummary: {
      Result<SummaryRequest> req = DecodeSummaryRequest(&reader);
      if (req.ok()) {
        Status consumed = ExpectConsumed(reader);
        if (!consumed.ok()) return AppendError(out, consumed);
        SummaryRequest scoped = *req;
        scoped.query_id = namespaced(req->query_id);
        span.set_session(scoped.query_id);
        return AppendReply(out, frame.method, endpoint_.PublishSummary(scoped),
                           EncodeSummaryReply);
      }
      return AppendError(out, req.status());
    }
    case RpcMethod::kApproximate: {
      Result<ApproximateRequest> req = DecodeApproximateRequest(&reader);
      if (req.ok()) {
        Status consumed = ExpectConsumed(reader);
        if (!consumed.ok()) return AppendError(out, consumed);
        ApproximateRequest scoped = *req;
        scoped.query_id = namespaced(req->query_id);
        span.set_session(scoped.query_id);
        // The estimate ends the session at the endpoint, success or not.
        Result<EstimateReply> reply = endpoint_.Approximate(scoped);
        live_sessions->erase(scoped.query_id);
        return AppendReply(out, frame.method, reply, EncodeEstimateReply);
      }
      return AppendError(out, req.status());
    }
    case RpcMethod::kExactAnswer: {
      Result<ExactAnswerRequest> req = DecodeExactAnswerRequest(&reader);
      if (req.ok()) {
        Status consumed = ExpectConsumed(reader);
        if (!consumed.ok()) return AppendError(out, consumed);
        ExactAnswerRequest scoped = *req;
        scoped.query_id = namespaced(req->query_id);
        span.set_session(scoped.query_id);
        Result<EstimateReply> reply = endpoint_.ExactAnswer(scoped);
        live_sessions->erase(scoped.query_id);
        return AppendReply(out, frame.method, reply, EncodeEstimateReply);
      }
      return AppendError(out, req.status());
    }
    case RpcMethod::kExactFullScan: {
      Result<ExactScanRequest> req = DecodeExactScanRequest(&reader);
      if (req.ok()) {
        Status consumed = ExpectConsumed(reader);
        if (!consumed.ok()) return AppendError(out, consumed);
        Status valid = req->query.Validate(endpoint_.info().schema);
        if (!valid.ok()) return AppendError(out, valid);
        // Stateless and RNG-free (see endpoint.h): replaying this after
        // a transport error is safe — the reply is a pure function of
        // the store, so retries cannot skew determinism.
        return AppendReply(out, frame.method, endpoint_.ExactFullScan(*req),
                           EncodeExactScanReply);
      }
      return AppendError(out, req.status());
    }
    case RpcMethod::kEndQuery: {
      Result<EndQueryRequest> req = DecodeEndQueryRequest(&reader);
      if (req.ok()) {
        Status consumed = ExpectConsumed(reader);
        if (!consumed.ok()) return AppendError(out, consumed);
        uint64_t session = namespaced(req->query_id);
        span.set_session(session);
        endpoint_.EndQuery(session);  // Idempotent by contract.
        live_sessions->erase(session);
        return AppendEmptyReply(out, RpcMethod::kEndQuery);
      }
      return AppendError(out, req.status());
    }
    case RpcMethod::kBatch: {
      // Doorbell batch: unpack, dispatch in order, answer with one kBatch
      // reply carrying the sub-replies in request order. The decoder
      // rejects nested batches and kError sub-requests, so every
      // sub-frame takes a normal request path above (none of which close
      // the connection).
      Result<std::vector<RpcFrame>> subs =
          DecodeBatchPayload(frame.payload, /*requests_only=*/true);
      if (!subs.ok()) return AppendError(out, subs.status());
      ByteWriter inner;
      for (const RpcFrame& sub : *subs) {
        HandleFrame(sub, conn_id, live_sessions, &inner);
        if (inner.size() > kMaxFramePayloadBytes) {
          // Replies outgrew the frame cap (requests are client-chunked,
          // replies are not). A plain kError reply to the batch fails
          // the whole chunk client-side with the stream still in sync.
          return AppendError(
              out, Status::FailedPrecondition(
                       "rpc: batch reply exceeds the frame payload cap"));
        }
      }
      EncodeFrameHeader(RpcMethod::kBatch, static_cast<uint32_t>(inner.size()),
                        out);
      out->PutRaw(inner.bytes().data(), inner.size());
      return true;
    }
    case RpcMethod::kLedgerRegister:
    case RpcMethod::kLedgerCharge:
    case RpcMethod::kLedgerRefund:
    case RpcMethod::kLedgerSaving:
    case RpcMethod::kLedgerQuery:
      // Valid wire methods, but they belong to the ledger service
      // (serve/ledger_service.h), not a data provider. Refuse politely —
      // the stream stays framed, the caller just dialed the wrong server.
      AppendError(out, Status::InvalidArgument(
                           "rpc: ledger methods are not served by a "
                           "provider server"));
      return true;
    case RpcMethod::kError:
      // A client must never send an error frame; the stream is confused.
      AppendError(out,
                  Status::InvalidArgument("rpc: error frame is reply-only"));
      return false;
  }
  return false;  // Unreachable: DecodeFrameHeader rejects unknown ids.
}

uint64_t RpcProviderServer::frames_received(RpcMethod method) const {
  return frames_by_method_[static_cast<uint8_t>(method)].load(
      std::memory_order_relaxed);
}

void RpcProviderServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
  if (loop_thread_.joinable()) loop_thread_.join();
  // Drain the workers BEFORE touching connection state: ThreadPool's
  // destructor runs queued ProcessInbox tasks to completion (they only
  // buffer output and ring the now-ignored doorbell).
  workers_.reset();
  for (auto& kv : connections_) {
    for (uint64_t session : kv.second->live_sessions) {
      endpoint_.EndQuery(session);
    }
  }
  connections_.clear();  // Destructors close the sockets.
  listener_.Shutdown();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

}  // namespace fedaqp
