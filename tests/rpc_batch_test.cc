// Batch calls and event-loop server tests: OpenBatch and EstimateBatch
// over one connection must be invisible except in the byte odometers —
// answers bit-identical to the per-query calls, real wire bytes equal to
// SimNetwork's charges plus exactly the counted outer-header overhead —
// a transport failure must fail every item without a retry, and one
// epoll server must multiplex many concurrent connections, slow readers
// included, on a handful of workers.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "exec/in_process_endpoint.h"
#include "federation/provider.h"
#include "obs/metrics.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "rpc/wire.h"
#include "storage/range_query.h"
#include "workload/datagen.h"

namespace fedaqp {
namespace {

std::unique_ptr<DataProvider> MakeProvider(size_t rows, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.rows = rows;
  cfg.seed = seed;
  cfg.dims = {{"a", 200, DistributionKind::kNormal, 0.5},
              {"b", 100, DistributionKind::kZipf, 1.2}};
  Result<Table> t = GenerateSynthetic(cfg);
  EXPECT_TRUE(t.ok());
  Result<Table> tensor = t->BuildCountTensor({0, 1});
  EXPECT_TRUE(tensor.ok());
  DataProvider::Options popts;
  popts.storage.cluster_capacity = 128;
  popts.storage.layout = ClusterLayout::kShuffled;
  popts.storage.shuffle_seed = seed;
  popts.n_min = 4;
  popts.seed = seed * 3 + 1;
  Result<std::unique_ptr<DataProvider>> p =
      DataProvider::Create(*tensor, popts);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

RangeQuery ScanQuery(uint32_t lo, uint32_t hi) {
  return RangeQueryBuilder(Aggregation::kCount).Where(0, lo, hi).Build();
}

/// `n` Open requests for sessions 1..n over distinct ranges.
std::vector<OpenRequest> OpenRequests(size_t n) {
  std::vector<OpenRequest> requests(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t lo = static_cast<uint32_t>(i);
    requests[i].cover = CoverRequest{i + 1, 1000 + i, ScanQuery(lo, 100 + lo)};
    requests[i].eps_allocation = 0.3;
  }
  return requests;
}

/// The estimate item that ends session `query_id`: the ExactAnswer
/// bypass for every third session (any open session accepts it), else
/// Approximate.
EstimateItem EstimateFor(uint64_t query_id) {
  if (query_id % 3 == 0) {
    ExactAnswerRequest req;
    req.query_id = query_id;
    req.eps_estimate = 0.5;
    return req;
  }
  ApproximateRequest req;
  req.query_id = query_id;
  req.sample_size = 3;
  req.eps_sampling = 0.2;
  req.eps_estimate = 0.5;
  req.delta = 1e-3;
  return req;
}

size_t WireSize(const EstimateItem& item) {
  if (const auto* req = std::get_if<ApproximateRequest>(&item)) {
    return fedaqp::WireSize(*req);
  }
  return fedaqp::WireSize(std::get<ExactAnswerRequest>(item));
}

/// One provider behind one server; tests connect as many clients as they
/// need. Few workers on purpose: multiplexing, not worker-per-connection,
/// must carry the load.
class RpcBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    batch_base_ = BatchExchanges().Value();
    batched_base_ = BatchedCalls().Value();
    StartServer({});
  }

  // The registry is the only record of kBatch exchanges; tests read its
  // deltas since SetUp.
  static obs::Counter& BatchExchanges() {
    return *obs::MetricRegistry::Global().GetCounter("rpc.doorbell_batches");
  }
  static obs::Counter& BatchedCalls() {
    return *obs::MetricRegistry::Global().GetCounter("rpc.coalesced_calls");
  }
  uint64_t batch_exchanges() const {
    return BatchExchanges().Value() - batch_base_;
  }
  uint64_t batched_calls() const {
    return BatchedCalls().Value() - batched_base_;
  }

  void StartServer(RpcServerOptions options) {
    servers_.clear();
    provider_ = MakeProvider(20000, 3);
    options.num_workers = 2;
    Result<std::unique_ptr<RpcProviderServer>> server =
        RpcProviderServer::Start(provider_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    servers_.push_back(std::move(server).value());
  }

  uint16_t port() const { return servers_[0]->port(); }

  Result<std::shared_ptr<RemoteEndpoint>> Connect() {
    return RemoteEndpoint::Connect("127.0.0.1", port());
  }

  std::unique_ptr<DataProvider> provider_;
  std::vector<std::unique_ptr<RpcProviderServer>> servers_;
  uint64_t batch_base_ = 0;
  uint64_t batched_base_ = 0;
};

// A batch call is one kBatch exchange, and every answer in it must be
// bit-identical to the same session driven by per-query calls (session
// noise is keyed by (provider seed, session nonce), so the comparison is
// exact). Sequential per-query calls must never pay for batching.
TEST_F(RpcBatchTest, BatchCallsMatchSequentialAnswers) {
  Result<std::shared_ptr<RemoteEndpoint>> endpoint = Connect();
  ASSERT_TRUE(endpoint.ok()) << endpoint.status().ToString();
  constexpr size_t kQueries = 24;
  const std::vector<OpenRequest> requests = OpenRequests(kQueries);

  // Sequential reference, one plain exchange per call.
  std::vector<OpenReply> ref_opened;
  std::vector<EstimateItem> items;
  std::vector<LocalEstimate> ref_estimates;
  for (const OpenRequest& request : requests) {
    Result<OpenReply> opened = (*endpoint)->Open(request);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ref_opened.push_back(*opened);
    items.push_back(EstimateFor(request.cover.query_id));
    const EstimateItem& item = items.back();
    Result<EstimateReply> one =
        std::holds_alternative<ApproximateRequest>(item)
            ? (*endpoint)->Approximate(std::get<ApproximateRequest>(item))
            : (*endpoint)->ExactAnswer(std::get<ExactAnswerRequest>(item));
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    ref_estimates.push_back(one->estimate);
  }
  EXPECT_EQ(batch_exchanges(), 0u)
      << "a sequential caller must never pay for batching";
  EXPECT_EQ(servers_[0]->frames_received(RpcMethod::kBatch), 0u);

  // The same sessions (ids and nonces) as two batch calls, plus an
  // EndQuery item for one extra session that gets no estimate.
  std::vector<OpenRequest> batch = requests;
  batch.push_back(OpenRequests(kQueries + 1).back());
  std::vector<Result<OpenReply>> opened = (*endpoint)->OpenBatch(batch);
  ASSERT_EQ(opened.size(), batch.size());
  for (size_t i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(opened[i].ok()) << opened[i].status().ToString();
    EXPECT_EQ(opened[i]->cover.num_covering_clusters,
              ref_opened[i].cover.num_covering_clusters);
    EXPECT_EQ(opened[i]->summary.summary.noisy_avg_r,
              ref_opened[i].summary.summary.noisy_avg_r);
    EXPECT_EQ(opened[i]->summary.summary.noisy_n_q,
              ref_opened[i].summary.summary.noisy_n_q);
  }
  ASSERT_TRUE(opened.back().ok());
  EXPECT_EQ(servers_[0]->num_open_sessions(), kQueries + 1);
  items.push_back(EndQueryRequest{kQueries + 1});
  std::vector<Result<EstimateReply>> estimates =
      (*endpoint)->EstimateBatch(items);
  ASSERT_EQ(estimates.size(), items.size());
  for (size_t i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(estimates[i].ok()) << estimates[i].status().ToString();
    EXPECT_EQ(estimates[i]->estimate.estimate, ref_estimates[i].estimate);
    EXPECT_EQ(estimates[i]->estimate.variance, ref_estimates[i].variance);
    EXPECT_EQ(estimates[i]->estimate.exact, ref_estimates[i].exact);
  }
  EXPECT_TRUE(estimates.back().ok());
  EXPECT_EQ(servers_[0]->num_open_sessions(), 0u);

  // One kBatch exchange per call, carrying every item.
  EXPECT_EQ(batch_exchanges(), 2u);
  EXPECT_EQ(batched_calls(), 2 * (kQueries + 1));
  EXPECT_EQ(servers_[0]->frames_received(RpcMethod::kBatch), 2u);
  EXPECT_EQ(servers_[0]->frames_received(RpcMethod::kEndQuery), 1u);
  // Every third session took the ExactAnswer bypass, in both passes.
  EXPECT_EQ(servers_[0]->frames_received(RpcMethod::kExactAnswer),
            2 * (kQueries / 3));

  // A batch of one is a plain frame, byte-identical to the single call.
  std::vector<Result<OpenReply>> lone = (*endpoint)->OpenBatch({requests[0]});
  ASSERT_TRUE(lone[0].ok());
  EXPECT_EQ(lone[0]->summary.summary.noisy_n_q,
            ref_opened[0].summary.summary.noisy_n_q);
  (*endpoint)->EndQuery(requests[0].cover.query_id);
  EXPECT_EQ(batch_exchanges(), 2u);
}

// The byte-accounting invariant under batching: real bytes moved ==
// per-message protocol charges (what SimNetwork bills, unchanged by
// batching) + exactly one outer frame header per batched send and per
// batched reply (what batch_overhead_bytes counts).
TEST_F(RpcBatchTest, BatchBytesEqualChargesPlusCountedOverhead) {
  Result<std::shared_ptr<RemoteEndpoint>> endpoint = Connect();
  ASSERT_TRUE(endpoint.ok());

  const uint64_t base =
      (*endpoint)->bytes_sent() + (*endpoint)->bytes_received();
  const std::vector<OpenRequest> requests = OpenRequests(16);
  uint64_t charged = 0;
  std::vector<Result<OpenReply>> opened = (*endpoint)->OpenBatch(requests);
  std::vector<EstimateItem> items;
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(opened[i].ok()) << opened[i].status().ToString();
    charged += WireSize(requests[i]) + WireSize(*opened[i]);
    items.push_back(EstimateFor(requests[i].cover.query_id));
  }
  std::vector<Result<EstimateReply>> estimates =
      (*endpoint)->EstimateBatch(items);
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(estimates[i].ok()) << estimates[i].status().ToString();
    charged += WireSize(items[i]) + WireSize(*estimates[i]);
  }

  const uint64_t moved =
      (*endpoint)->bytes_sent() + (*endpoint)->bytes_received() - base;
  EXPECT_EQ(batch_exchanges(), 2u);
  EXPECT_EQ((*endpoint)->batch_overhead_bytes(),
            2 * kFrameHeaderBytes * batch_exchanges());
  EXPECT_EQ(moved, charged + (*endpoint)->batch_overhead_bytes());
}

// A raw-wire kBatch exchange: sub-replies arrive in request order inside
// one kBatch reply, mixing methods (kInfo + scans + kEndQuery ack).
TEST_F(RpcBatchTest, WireBatchRepliesArriveInRequestOrder) {
  Result<TcpConnection> conn = TcpConnection::Connect("127.0.0.1", port());
  ASSERT_TRUE(conn.ok());

  ByteWriter batch;
  {
    EncodeFrameHeader(RpcMethod::kInfo, 0, &batch);  // Empty payload.
    ByteWriter scan;
    EncodeExactScanRequest(ExactScanRequest{ScanQuery(10, 150)}, &scan);
    EncodeFrameHeader(RpcMethod::kExactFullScan,
                      static_cast<uint32_t>(scan.size()), &batch);
    batch.PutRaw(scan.bytes().data(), scan.size());
    ByteWriter end;
    EncodeEndQueryRequest(EndQueryRequest{42}, &end);
    EncodeFrameHeader(RpcMethod::kEndQuery, static_cast<uint32_t>(end.size()),
                      &batch);
    batch.PutRaw(end.bytes().data(), end.size());
  }
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kBatch, batch).ok());
  Result<RpcFrame> reply = conn->ReceiveFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->method, RpcMethod::kBatch);
  Result<std::vector<RpcFrame>> subs =
      DecodeBatchPayload(reply->payload, /*requests_only=*/false);
  ASSERT_TRUE(subs.ok()) << subs.status().ToString();
  ASSERT_EQ(subs->size(), 3u);
  EXPECT_EQ((*subs)[0].method, RpcMethod::kInfo);
  EXPECT_EQ((*subs)[1].method, RpcMethod::kExactFullScan);
  EXPECT_EQ((*subs)[2].method, RpcMethod::kEndQuery);
  ByteReader info_reader((*subs)[0].payload);
  Result<EndpointInfo> info = DecodeEndpointInfo(&info_reader);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, provider_->name());
}

// Malformed batches must be rejected without desynchronizing the stream:
// the connection keeps serving after each kError reply.
TEST_F(RpcBatchTest, MalformedBatchesAreRejectedAndRecoverable) {
  Result<TcpConnection> conn = TcpConnection::Connect("127.0.0.1", port());
  ASSERT_TRUE(conn.ok());

  // Empty batch.
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kBatch, ByteWriter()).ok());
  Result<RpcFrame> reply = conn->ReceiveFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->method, RpcMethod::kError);

  // Nested batch.
  ByteWriter nested;
  {
    ByteWriter inner;
    EncodeFrameHeader(RpcMethod::kInfo, 0, &inner);
    EncodeFrameHeader(RpcMethod::kBatch, static_cast<uint32_t>(inner.size()),
                      &nested);
    nested.PutRaw(inner.bytes().data(), inner.size());
  }
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kBatch, nested).ok());
  reply = conn->ReceiveFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->method, RpcMethod::kError);

  // Truncated sub-frame (header promises more payload than present).
  ByteWriter truncated;
  EncodeFrameHeader(RpcMethod::kEndQuery, 100, &truncated);
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kBatch, truncated).ok());
  reply = conn->ReceiveFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->method, RpcMethod::kError);

  // Still in sync: a well-formed request gets a real answer.
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kInfo, ByteWriter()).ok());
  reply = conn->ReceiveFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->method, RpcMethod::kInfo);
}

// 64+ concurrent connections against one epoll loop and 2 workers: every
// connection handshakes and gets correct scan answers, and the server
// leaks no sessions.
TEST_F(RpcBatchTest, SixtyFourConnectionSoak) {
  constexpr size_t kConnections = 64;
  const double expected = [&] {
    Result<std::shared_ptr<RemoteEndpoint>> e = Connect();
    EXPECT_TRUE(e.ok());
    Result<ExactScanReply> r =
        (*e)->ExactFullScan(ExactScanRequest{ScanQuery(10, 150)});
    EXPECT_TRUE(r.ok());
    return r->value;
  }();

  std::vector<std::shared_ptr<RemoteEndpoint>> endpoints(kConnections);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kConnections; ++i) {
      threads.emplace_back([&, i] {
        Result<std::shared_ptr<RemoteEndpoint>> e = Connect();
        if (!e.ok()) {
          failures.fetch_add(1);
          return;
        }
        endpoints[i] = std::move(e).value();
        Result<ExactScanReply> r =
            endpoints[i]->ExactFullScan(ExactScanRequest{ScanQuery(10, 150)});
        if (!r.ok() || r->value != expected) failures.fetch_add(1);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  endpoints.clear();  // Disconnect everything.
  // The loop processes the disconnects asynchronously; sessions (all
  // scan-only here, so none were ever open) must read zero.
  EXPECT_EQ(servers_[0]->num_open_sessions(), 0u);
}

// A peer that stops reading must not stall anyone else: with a tiny
// kernel send buffer, pipelined replies to the slow reader queue in the
// server's per-connection write buffer (partial writes, EPOLLOUT) while
// a second connection is served promptly; the slow reader then drains
// everything, intact and in order.
TEST_F(RpcBatchTest, SlowPeerPartialWritesDoNotBlockOthers) {
  RpcServerOptions options;
  options.send_buffer_bytes = 1024;
  StartServer(options);

  Result<TcpConnection> slow = TcpConnection::Connect("127.0.0.1", port());
  ASSERT_TRUE(slow.ok());
  // Pipeline enough kInfo requests that the replies (schema-bearing,
  // hundreds of bytes each) overflow the shrunken send buffer many
  // times over — without reading a single reply yet.
  constexpr int kPipelined = 200;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(slow->SendFrame(RpcMethod::kInfo, ByteWriter()).ok());
  }

  // Meanwhile a well-behaved connection must be served immediately.
  Result<std::shared_ptr<RemoteEndpoint>> fast = Connect();
  ASSERT_TRUE(fast.ok());
  Result<ExactScanReply> fast_reply =
      (*fast)->ExactFullScan(ExactScanRequest{ScanQuery(10, 150)});
  ASSERT_TRUE(fast_reply.ok()) << fast_reply.status().ToString();

  // Now drain the slow connection: all replies, in order, undamaged.
  for (int i = 0; i < kPipelined; ++i) {
    Result<RpcFrame> reply = slow->ReceiveFrame();
    ASSERT_TRUE(reply.ok()) << "reply " << i << ": "
                            << reply.status().ToString();
    ASSERT_EQ(reply->method, RpcMethod::kInfo) << "reply " << i;
    ByteReader reader(reply->payload);
    Result<EndpointInfo> info = DecodeEndpointInfo(&reader);
    ASSERT_TRUE(info.ok()) << "reply " << i;
    EXPECT_EQ(info->name, provider_->name());
  }
}

// Fault-injected pin for mid-batch transport failure: a peer that dies
// after reading a kBatch request fails EVERY item of the batch with the
// transport status, poisons the connection (later batch calls fail fast,
// item by item, without touching the wire), and is never retried — not
// on the dead link, and not by reconnecting: replaying Open would re-key
// a session's noise stream.
TEST_F(RpcBatchTest, MidBatchTransportFailureFailsEveryItem) {
  Result<TcpListener> listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const EndpointInfo info = InProcessEndpoint(provider_.get()).info();
  RpcMethod seen = RpcMethod::kError;
  // A fake provider: handshakes, reads one request, then drops the link
  // before replying.
  std::thread peer([&] {
    Result<TcpConnection> conn = listener->Accept();
    if (!conn.ok()) return;
    if (!conn->ReceiveFrame().ok()) return;  // kInfo
    ByteWriter payload;
    EncodeEndpointInfo(info, &payload);
    if (!conn->SendFrame(RpcMethod::kInfo, payload).ok()) return;
    Result<RpcFrame> request = conn->ReceiveFrame();
    if (request.ok()) seen = request->method;
    conn->Close();
  });
  Result<std::shared_ptr<RemoteEndpoint>> endpoint =
      RemoteEndpoint::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(endpoint.ok()) << endpoint.status().ToString();

  std::vector<Result<OpenReply>> opened =
      (*endpoint)->OpenBatch(OpenRequests(8));
  peer.join();
  EXPECT_EQ(seen, RpcMethod::kBatch);
  ASSERT_EQ(opened.size(), 8u);
  for (const Result<OpenReply>& reply : opened) {
    ASSERT_FALSE(reply.ok());
    EXPECT_NE(reply.status().code(), StatusCode::kFailedPrecondition)
        << "the exchange that broke reports the transport error itself";
  }

  // Poisoned: every later item fails fast with FailedPrecondition.
  std::vector<Result<OpenReply>> again =
      (*endpoint)->OpenBatch(OpenRequests(3));
  std::vector<Result<EstimateReply>> estimates = (*endpoint)->EstimateBatch(
      {EndQueryRequest{1}, EndQueryRequest{2}});
  for (const Result<OpenReply>& reply : again) {
    EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
  }
  for (const Result<EstimateReply>& reply : estimates) {
    EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
  }
  // No reconnect was attempted: nothing else ever dialed the peer.
  listener->SetNonBlocking();
  EXPECT_FALSE(listener->TryAccept().ok());
}

// DecodeBatchPayload unit coverage: request-side restrictions.
TEST(BatchCodecTest, RequestsOnlyRejectsErrorSubFrames) {
  ByteWriter batch;
  ByteWriter status;
  EncodeStatusPayload(Status::Internal("boom"), &status);
  EncodeFrameHeader(RpcMethod::kError, static_cast<uint32_t>(status.size()),
                    &batch);
  batch.PutRaw(status.bytes().data(), status.size());
  EXPECT_FALSE(DecodeBatchPayload(batch.bytes(), true).ok());
  // The same payload is legal on the reply side (a failed sub-call).
  EXPECT_TRUE(DecodeBatchPayload(batch.bytes(), false).ok());
}

TEST(BatchCodecTest, TrailingGarbageIsRejected) {
  ByteWriter batch;
  EncodeFrameHeader(RpcMethod::kInfo, 0, &batch);
  std::vector<uint8_t> bytes = batch.bytes();
  bytes.push_back(0x7f);  // One stray byte after a complete sub-frame.
  EXPECT_FALSE(DecodeBatchPayload(bytes, true).ok());
}

}  // namespace
}  // namespace fedaqp

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
