// Pipeline-speedup bench: the same multi-query batch executed under the
// lock-step phase-barrier scheduler and under the barrier-free task-graph
// scheduler, both in-process and over real loopback TCP (where every
// phase barrier costs actual network round-trips). Reports wall and
// critical-path latency per mode and exits non-zero if any mode's
// answers diverge from the reference — the schedulers must be
// bit-identical by construction. Emits BENCH_pipeline_speedup.json.
//
//   --rows=N --providers=P --queries=M --seed=S --threads=T --shards=K
//   --repeats=R (or --reps=R): best-of-R timing per mode, after one
//   untimed warmup run that pre-faults allocators and code paths
//   --trace=FILE: after the timed modes, re-run the loopback graph batch
//   once with span tracing enabled and export Chrome trace-event JSON to
//   FILE (CI validates it with tools/trace_summary.py). The traced run's
//   answers feed the same bit-identity gate as every other run — tracing
//   on must not perturb a single estimate.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/trace.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"

namespace fedaqp {
namespace {

struct ModeResult {
  std::string name;
  double wall_seconds = 0.0;           // best over reps
  double critical_path_seconds = 0.0;  // of the rep whose wall is kept
  size_t num_tasks = 0;
  std::vector<double> estimates;       // first rep; later reps must match
  bool stable = true;                  // reps reproduced the estimates
};

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t rows = flags.GetInt("rows", 40000);
  const size_t providers = flags.GetInt("providers", 4);
  const size_t num_queries = flags.GetInt("queries", 12);
  const uint64_t seed = flags.GetInt("seed", 1);
  const size_t threads = flags.GetInt("threads", 4);
  const size_t shards = flags.GetInt("shards", 0);
  const int reps =
      static_cast<int>(flags.GetInt("repeats", flags.GetInt("reps", 3)));

  FederationConfig protocol;
  protocol.per_query_budget = {1.0, 1e-3};
  protocol.sampling_rate = 0.2;
  protocol.mode = ReleaseMode::kLocalDp;
  protocol.num_threads = threads;
  protocol.num_scan_shards = shards;
  std::unique_ptr<Federation> fed = bench::OpenPaperFederation(
      bench::Dataset::kAdult, rows, providers, seed, protocol);
  if (!fed) return 1;

  Result<std::vector<RangeQuery>> workload = bench::PaperWorkload(
      fed.get(), num_queries, 2, Aggregation::kCount, seed + 11);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  // Loopback topology shared by the over-the-wire modes.
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

  auto run_mode = [&](const std::string& name, BatchScheduler scheduler,
                      bool loopback) -> Result<ModeResult> {
    FederationConfig config = protocol;
    config.scheduler = scheduler;
    ModeResult result;
    result.name = name;
    for (int rep = -1; rep < reps; ++rep) {
      // rep -1 is an untimed warmup (first-touch page faults, lazy
      // connection pools); its timing is discarded, its answers still
      // checked. A fresh client per rep: fresh session ids and a fresh
      // ledger, so reps are true repetitions of the same batch.
      std::vector<std::shared_ptr<ProviderEndpoint>> endpoints;
      if (loopback) {
        FEDAQP_ASSIGN_OR_RETURN(endpoints,
                                RemoteEndpoint::ConnectAll(host_ports));
      } else {
        endpoints = fed->MakeEndpoints();
      }
      FEDAQP_ASSIGN_OR_RETURN(std::unique_ptr<FederationClient> client,
                              bench::MakeClient(std::move(endpoints), config));
      // SubmitAll enqueues the workload under one lock, so it runs as one
      // admission round: one ExecuteBatchSpecs call, timed by the
      // orchestrator itself (WaitIdle makes its stats safe to read).
      std::vector<QuerySpec> batch(workload->size());
      for (size_t q = 0; q < batch.size(); ++q) {
        batch[q].analyst = Federation::kAnalyst;
        batch[q].query = (*workload)[q];
      }
      std::vector<QueryTicket> tickets = client->SubmitAll(std::move(batch));
      std::vector<BatchOutcome> outcomes = WaitAll(tickets);
      client->WaitIdle();
      const BatchRunStats& stats = client->orchestrator().last_batch_stats();
      const double wall = stats.wall_seconds;
      std::vector<double> estimates;
      for (const auto& out : outcomes) {
        FEDAQP_RETURN_IF_ERROR(out.status);
        estimates.push_back(out.response.estimate);
      }
      if (rep == -1) {
        // The warmup's wall time is never recorded, but its answers
        // become the reference every timed rep must reproduce.
        result.estimates = std::move(estimates);
      } else {
        if (estimates != result.estimates) result.stable = false;
        if (rep == 0 || wall < result.wall_seconds) {
          // Wall and critical path come from the same rep, so the two
          // columns stay comparable.
          result.wall_seconds = wall;
          result.critical_path_seconds = stats.critical_path_seconds;
        }
      }
      result.num_tasks = stats.num_tasks;
    }
    return result;
  };

  std::vector<ModeResult> modes;
  struct ModeSpec {
    const char* name;
    BatchScheduler scheduler;
    bool loopback;
  };
  const ModeSpec specs[] = {
      {"barrier_inproc", BatchScheduler::kPhaseBarrier, false},
      {"graph_inproc", BatchScheduler::kTaskGraph, false},
      {"barrier_loopback", BatchScheduler::kPhaseBarrier, true},
      {"graph_loopback", BatchScheduler::kTaskGraph, true},
  };
  for (const ModeSpec& spec : specs) {
    Result<ModeResult> mode = run_mode(spec.name, spec.scheduler, spec.loopback);
    if (!mode.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name,
                   mode.status().ToString().c_str());
      return 1;
    }
    modes.push_back(std::move(mode).value());
  }

  // Divergence check: every mode (and every rep, via `stable`) must
  // reproduce the reference answers bit-for-bit.
  bool identical = true;
  for (const ModeResult& mode : modes) {
    if (!mode.stable || mode.estimates != modes[0].estimates) {
      identical = false;
    }
  }

  // Traced loopback re-run: one more graph_loopback batch with span
  // recording on, exported as Chrome trace JSON. Its answers must match
  // the untraced reference — the observability layer's determinism
  // contract, enforced through the same `identical` gate.
  const std::string trace_path = flags.GetString("trace");
  size_t trace_spans = 0;
  if (!trace_path.empty()) {
    obs::TraceRecorder::Global().Clear();
    obs::TraceRecorder::Global().SetEnabled(true);
    Result<ModeResult> traced =
        run_mode("graph_loopback_traced", BatchScheduler::kTaskGraph, true);
    obs::TraceRecorder::Global().SetEnabled(false);
    if (!traced.ok()) {
      std::fprintf(stderr, "traced run: %s\n",
                   traced.status().ToString().c_str());
      return 1;
    }
    if (!traced->stable || traced->estimates != modes[0].estimates) {
      std::fprintf(stderr,
                   "traced run DIVERGED from the untraced reference\n");
      identical = false;
    }
    trace_spans = obs::TraceRecorder::Global().size();
    Status exported =
        obs::TraceRecorder::Global().ExportChromeTrace(trace_path);
    if (!exported.ok()) {
      std::fprintf(stderr, "trace export: %s\n",
                   exported.ToString().c_str());
      return 1;
    }
    std::printf("  traced re-run: %zu spans -> %s (answers %s)\n",
                trace_spans, trace_path.c_str(),
                identical ? "identical" : "DIVERGED");
  }

  std::printf("pipeline speedup: %zu providers, %zu queries, %zu threads, "
              "best of %d\n",
              providers, workload->size(), threads, reps);
  for (const ModeResult& mode : modes) {
    std::printf("  %-18s %9.2f ms wall   %9.2f ms critical path   %zu tasks\n",
                mode.name.c_str(), mode.wall_seconds * 1e3,
                mode.critical_path_seconds * 1e3, mode.num_tasks);
  }
  const double speedup_inproc =
      modes[1].wall_seconds > 0 ? modes[0].wall_seconds / modes[1].wall_seconds
                                : 0.0;
  const double speedup_loopback =
      modes[3].wall_seconds > 0 ? modes[2].wall_seconds / modes[3].wall_seconds
                                : 0.0;
  std::printf(
      "  task-graph speedup: %.2fx in-process, %.2fx loopback\n"
      "  answers: %s\n"
      "  (the critical-path column is the schedule-independent signal —\n"
      "   it bounds the batch's latency on parallel hardware and must stay\n"
      "   <= the barrier path's)\n",
      speedup_inproc, speedup_loopback,
      identical ? "bit-identical across all modes" : "DIVERGED (bug!)");

  bench::BenchJson json("pipeline_speedup");
  json.Set("rows", rows);
  json.Set("providers", providers);
  json.Set("queries", workload->size());
  json.Set("threads", threads);
  json.Set("shards", shards);
  json.Set("reps", reps);
  for (const ModeResult& mode : modes) {
    json.Set(mode.name + "_wall_seconds", mode.wall_seconds);
    json.Set(mode.name + "_critical_path_seconds",
             mode.critical_path_seconds);
  }
  json.Set("graph_tasks", modes[1].num_tasks);
  json.Set("speedup_inproc", speedup_inproc);
  json.Set("speedup_loopback", speedup_loopback);
  json.Set("bit_identical", identical ? 1 : 0);
  json.Set("answers_checksum", bench::AnswersChecksum(modes[0].estimates));
  if (!trace_path.empty()) json.Set("trace_spans", trace_spans);
  json.Write();

  // Fail loudly on divergence: CI runs this.
  return identical ? 0 : 2;
}

}  // namespace
}  // namespace fedaqp

int main(int argc, char** argv) { return fedaqp::Run(argc, argv); }
