// Loopback RPC bench: the same federation and workload executed (a)
// in-process and (b) over real framed TCP on 127.0.0.1, with one
// RpcProviderServer per provider. Reports the real bytes moved on the
// wire next to SimNetwork's charged bytes (they must match: the
// simulator charges the codec's framed sizes) and the in-process vs
// loopback latency. Emits BENCH_rpc_loopback.json.
//
//   --rows=N --providers=P --queries=M --seed=S --threads=T

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"

namespace fedaqp {
namespace {

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t rows = flags.GetInt("rows", 40000);
  const size_t providers = flags.GetInt("providers", 4);
  const size_t num_queries = flags.GetInt("queries", 8);
  const uint64_t seed = flags.GetInt("seed", 1);
  const size_t threads = flags.GetInt("threads", 1);

  FederationConfig protocol;
  protocol.per_query_budget = {1.0, 1e-3};
  protocol.sampling_rate = 0.2;
  protocol.mode = ReleaseMode::kLocalDp;
  protocol.num_threads = threads;
  std::unique_ptr<Federation> fed = bench::OpenPaperFederation(
      bench::Dataset::kAdult, rows, providers, seed, protocol);
  if (!fed) return 1;

  Result<std::vector<RangeQuery>> workload =
      bench::PaperWorkload(fed.get(), num_queries, 2, Aggregation::kCount,
                           seed + 11);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  // ---- In-process run.
  Result<std::unique_ptr<FederationClient>> local =
      bench::MakeClient(fed->MakeEndpoints(), protocol);
  if (!local.ok()) {
    std::fprintf(stderr, "client: %s\n", local.status().ToString().c_str());
    return 1;
  }
  std::vector<double> local_estimates;
  uint64_t charged_bytes = 0;
  uint64_t charged_messages = 0;
  Stopwatch local_timer;
  for (const RangeQuery& q : *workload) {
    Result<QueryResponse> resp = bench::Ask(local->get(), q);
    if (!resp.ok()) {
      std::fprintf(stderr, "local query: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    local_estimates.push_back(resp->estimate);
    charged_bytes += resp->breakdown.network_bytes;
    charged_messages += resp->breakdown.network_messages;
  }
  const double local_seconds = local_timer.ElapsedSeconds();

  // ---- Loopback run: real processes-over-TCP topology, same machine.
  Result<std::vector<std::unique_ptr<RpcProviderServer>>> servers =
      fed->Serve(0);
  if (!servers.ok()) {
    std::fprintf(stderr, "serve: %s\n", servers.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> host_ports;
  for (const auto& s : *servers) {
    host_ports.push_back("127.0.0.1:" + std::to_string(s->port()));
  }
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      RemoteEndpoint::ConnectAll(host_ports);
  if (!remote.ok()) {
    std::fprintf(stderr, "connect: %s\n", remote.status().ToString().c_str());
    return 1;
  }
  std::vector<RemoteEndpoint*> raw;
  for (const auto& e : *remote) {
    raw.push_back(static_cast<RemoteEndpoint*>(e.get()));
  }
  uint64_t handshake_bytes = 0;
  for (auto* e : raw) handshake_bytes += e->bytes_sent() + e->bytes_received();

  Result<std::unique_ptr<FederationClient>> over_wire =
      bench::MakeClient(std::move(remote).value(), protocol);
  if (!over_wire.ok()) {
    std::fprintf(stderr, "remote client: %s\n",
                 over_wire.status().ToString().c_str());
    return 1;
  }
  size_t identical = 0;
  Stopwatch wire_timer;
  for (size_t i = 0; i < workload->size(); ++i) {
    Result<QueryResponse> resp = bench::Ask(over_wire->get(), (*workload)[i]);
    if (!resp.ok()) {
      std::fprintf(stderr, "loopback query: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    if (resp->estimate == local_estimates[i]) ++identical;
  }
  const double wire_seconds = wire_timer.ElapsedSeconds();
  uint64_t real_bytes = 0;
  for (auto* e : raw) real_bytes += e->bytes_sent() + e->bytes_received();
  real_bytes -= handshake_bytes;

  const bool bytes_match = real_bytes == charged_bytes;
  const bool bit_identical = identical == workload->size();
  std::printf(
      "rpc loopback: %zu providers, %zu queries\n"
      "  in-process   %8.2f ms  (%.2f ms/query)\n"
      "  loopback TCP %8.2f ms  (%.2f ms/query)\n"
      "  charged bytes %10llu\n"
      "  real bytes    %10llu  (%s; handshake %llu excluded)\n"
      "  bit-identical estimates: %zu/%zu\n",
      providers, workload->size(), local_seconds * 1e3,
      local_seconds * 1e3 / workload->size(), wire_seconds * 1e3,
      wire_seconds * 1e3 / workload->size(),
      static_cast<unsigned long long>(charged_bytes),
      static_cast<unsigned long long>(real_bytes),
      bytes_match ? "MATCH" : "MISMATCH",
      static_cast<unsigned long long>(handshake_bytes), identical,
      workload->size());

  bench::BenchJson json("rpc_loopback");
  json.Set("rows", rows);
  json.Set("providers", providers);
  json.Set("queries", workload->size());
  json.Set("threads", threads);
  json.Set("in_process_seconds", local_seconds);
  json.Set("loopback_seconds", wire_seconds);
  json.Set("loopback_overhead_x",
           local_seconds > 0 ? wire_seconds / local_seconds : 0.0);
  json.Set("charged_bytes", charged_bytes);
  json.Set("charged_messages", charged_messages);
  json.Set("real_wire_bytes", real_bytes);
  json.Set("handshake_bytes", handshake_bytes);
  json.Set("bytes_match", bytes_match ? 1 : 0);
  json.Set("bit_identical", bit_identical ? 1 : 0);
  json.Write();

  // Fail loudly if the wire diverged from the simulation: CI runs this.
  return bytes_match && bit_identical ? 0 : 2;
}

}  // namespace
}  // namespace fedaqp

int main(int argc, char** argv) { return fedaqp::Run(argc, argv); }
