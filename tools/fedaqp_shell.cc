// fedaqp_shell — an interactive driver for poking the private federation
// from a terminal or a script. Reads one command per line from stdin.
// Queries run through the async FederationClient: synchronous commands
// (count/sum/exact/batch) submit and wait inline; the submit/await/
// cancel/tickets commands expose the asynchronous surface directly.
//
//   open adult|amazon <rows> <providers> [seed]    build a federation
//   budget <eps> <delta> <xi> <psi>                per-query + total grant
//   rate <sr>                                      sampling rate in (0,1)
//   mode dp|smc                                    release mode
//   threads <n> [shards]                           worker pool + per-provider
//                                                  scan shards on that pool
//   sched graph|barrier                            batch scheduler (task graph
//                                                  is the default)
//   serve <base_port>                              host the open federation's
//                                                  providers over TCP (one
//                                                  port per provider)
//   connect <host:port> [<host:port> ...]          coordinate remote providers
//   serve-ledger <port>                            host a shared budget
//                                                  authority (LedgerService)
//   ledger connect <host:port> [coordinator_id]    charge through a remote
//                                                  ledger service instead of
//                                                  the in-process ledger
//   ledger off                                     back to the local ledger
//   fair on|off                                    weighted-fair (DWRR)
//                                                  admission + deadline
//                                                  eviction (default: FIFO)
//   weight <analyst> <w>                           fair-admission weight (>=1)
//   loadgen <qps> <secs> [high,low,reuse] [deadline=<sec>]
//                                                  open-loop load run with
//                                                  per-class latency quantiles
//   count|sum|sumsq <dim lo hi> [<dim lo hi> ...]  run a private query
//   exact count|sum|sumsq <dim lo hi> ...          plain-text baseline
//   batch <k> count|sum|sumsq <dim lo hi> ...      k copies as one batch
//   submit <analyst> [exact] count|sum|sumsq <dim lo hi> ...
//          [prio=high|normal|low] [deadline=<sec>] [rounds=<n>]
//                                                  async submission; returns a
//                                                  ticket id immediately
//                                                  (rounds= makes it
//                                                  progressive)
//   await <ticket>                                 block on a ticket
//   cancel <ticket>                                cancel; unspent budget is
//                                                  refunded
//   tickets                                        list submitted tickets
//   groupby <dim> count|sum <dim lo hi> ...        private group-by
//   cache on|off [horizon]                         noisy-answer cache; with a
//                                                  horizon the planner shrinks
//                                                  per-query epsilon to answer
//                                                  that many queries
//   plan <analyst> count|sum|sumsq <dim lo hi> [/ count ...]
//                                                  dry-run a workload: which
//                                                  queries the cache serves
//                                                  free and what epsilon the
//                                                  planner gives the rest
//   schema                                         print dimensions
//   status                                         per-analyst ledger state
//                                                  (+ registry counters)
//   stats [prefix]                                 dump the metric registry
//   trace on|off|export <file>                     span tracing; export writes
//                                                  Chrome trace-event JSON
//   audit <analyst>                                budget audit trail
//   loglevel [debug|info|warn|error]               library log filter
//   help / quit
//
// Example session:
//   open adult 100000 4
//   rate 0.2
//   count 0 20 40
//   submit alice count 0 20 40 prio=high
//   await 2
//   status

#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/fedaqp.h"
#include "exec/federation_client.h"
#include "federation/derived.h"
#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "serve/ledger_service.h"
#include "serve/loadgen.h"

namespace fedaqp {
namespace {

/// The implicit analyst the synchronous commands charge.
constexpr const char* kShellAnalyst = "shell";

struct ShellState {
  std::unique_ptr<Federation> federation;
  /// The async session layer every query runs through. Owns the
  /// orchestrator (and its admission thread); rebuilt on setting changes.
  std::unique_ptr<FederationClient> client;
  /// Local providers hosted over TCP (`serve`). Declared after
  /// `federation` so they stop before the providers they borrow die.
  std::vector<std::unique_ptr<RpcProviderServer>> servers;
  /// Remote providers this shell coordinates (`connect`). When non-empty
  /// the client runs over these instead of the local federation.
  std::vector<std::shared_ptr<ProviderEndpoint>> remote_endpoints;
  /// Shared budget authority this shell hosts (`serve-ledger`).
  std::unique_ptr<serve::LedgerService> ledger_service;
  /// When set (`ledger connect`), every budget op the client makes goes
  /// through this remote service instead of the in-process ledger; it
  /// survives `open`/setting rebuilds until `ledger off`.
  std::shared_ptr<serve::RemoteLedger> remote_ledger;
  /// `fair on|off`: DWRR admission + deadline eviction vs plain FIFO.
  bool fair_admission = false;
  /// `weight` assignments, replayed into each rebuilt client.
  std::map<std::string, uint32_t> analyst_weights;
  /// Outstanding and completed tickets by id (`submit`/`await`/`cancel`).
  std::map<uint64_t, QueryTicket> tickets;
  PrivacyBudget per_query{1.0, 1e-3};
  double xi = 100.0;
  double psi = 0.1;
  double sampling_rate = 0.2;
  ReleaseMode mode = ReleaseMode::kLocalDp;
  size_t num_threads = 1;
  size_t num_scan_shards = 1;
  BatchScheduler scheduler = BatchScheduler::kTaskGraph;
  bool enable_cache = false;
  size_t plan_horizon = 0;

  Status Rebuild() {
    if (!federation && remote_endpoints.empty()) {
      return Status::FailedPrecondition(
          "no federation open (use `open` or `connect`)");
    }
    FederationConfig config;
    config.per_query_budget = per_query;
    config.sampling_rate = sampling_rate;
    config.mode = mode;
    config.num_threads = num_threads;
    config.num_scan_shards = num_scan_shards;
    config.scheduler = scheduler;
    FederationClient::Options opts;
    opts.protocol = config;
    opts.analysts = {{kShellAnalyst, xi, psi}};
    opts.enable_cache = enable_cache;
    // Local providers expose cluster metadata, so the cache can refuse
    // remainders that cross the same cut cells as the full range.
    opts.cache_align_to_metadata = remote_endpoints.empty();
    opts.plan_horizon = plan_horizon;
    opts.fair_admission = fair_admission;
    // Deadline eviction rides with fair admission: queued work whose
    // deadline passes before any protocol stage ran is cancelled and
    // fully refunded instead of running to a useless completion.
    opts.evict_expired = fair_admission;
    opts.shared_ledger = remote_ledger;
    // Old tickets belong to the torn-down client; drop the handles
    // (waiters already completed — the client drains at destruction).
    tickets.clear();
    client.reset();
    FEDAQP_ASSIGN_OR_RETURN(
        client,
        remote_endpoints.empty()
            ? FederationClient::Create(federation->provider_ptrs(), opts)
            : FederationClient::Create(remote_endpoints, opts));
    for (const auto& w : analyst_weights) {
      client->SetAnalystWeight(w.first, w.second);
    }
    return Status::OK();
  }

  /// Registers `analyst` with the shell's default grant on first use.
  void EnsureAnalyst(const std::string& analyst) {
    if (!client->ledger().Knows(analyst)) {
      client->RegisterAnalyst(analyst, xi, psi);
    }
  }
};

Result<RangeQuery> ParseQuery(Aggregation agg, std::istringstream* in) {
  std::vector<DimRange> ranges;
  long dim, lo, hi;
  while (*in >> dim >> lo >> hi) {
    ranges.push_back(DimRange{static_cast<size_t>(dim), lo, hi});
  }
  return RangeQuery(agg, std::move(ranges));
}

Result<Aggregation> ParseAgg(const std::string& word) {
  if (word == "count") return Aggregation::kCount;
  if (word == "sum") return Aggregation::kSum;
  if (word == "sumsq") return Aggregation::kSumSquares;
  return Status::InvalidArgument("unknown aggregation '" + word + "'");
}

const char* PriorityName(QueryPriority priority) {
  switch (priority) {
    case QueryPriority::kHigh:
      return "high";
    case QueryPriority::kNormal:
      return "normal";
    case QueryPriority::kLow:
      return "low";
  }
  return "?";
}

void PrintResponse(const char* label, const QueryResponse& resp) {
  std::printf("%s = %.1f", label, resp.estimate);
  if (resp.stderr_estimate > 0.0) {
    std::printf("  (stderr %.1f)", resp.stderr_estimate);
  }
  std::printf("  [%.2f ms, %zu rows scanned]\n",
              resp.breakdown.TotalSeconds() * 1e3,
              resp.breakdown.rows_scanned);
}

void PrintTicketOutcome(uint64_t id, QueryTicket& ticket) {
  Result<QueryResponse> result = ticket.Wait();
  const TicketStats stats = ticket.Stats();
  if (!result.ok()) {
    std::printf("ticket %llu: %s", static_cast<unsigned long long>(id),
                result.status().ToString().c_str());
    if (stats.refunded.epsilon > 0.0 || stats.refunded.delta > 0.0) {
      std::printf("  (refunded eps=%.4f, delta=%.6f)",
                  stats.refunded.epsilon, stats.refunded.delta);
    }
    std::printf("\n");
    return;
  }
  char label[64];
  std::snprintf(label, sizeof(label), "ticket %llu",
                static_cast<unsigned long long>(id));
  PrintResponse(label, *result);
  if (stats.served_from_cache) {
    std::printf("    served from cache (%u purchased sub-answers reused) — "
                "zero budget charged\n", stats.cache_sub_answers);
  }
  std::vector<ProgressiveRound> rounds = ticket.Refinements();
  for (const ProgressiveRound& r : rounds) {
    std::printf("    round %zu: %.1f (stderr %.1f, eps spent %.4f)\n",
                r.round, r.estimate, r.stderr_estimate, r.spent.epsilon);
  }
  std::printf("    wall %.2f ms, simulated %.2f ms, %llu bytes on the wire\n",
              stats.wall_seconds * 1e3, stats.simulated_seconds * 1e3,
              static_cast<unsigned long long>(stats.simulated_network_bytes));
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  open adult|amazon <rows> <providers> [seed]\n"
      "  budget <eps> <delta> <xi> <psi>\n"
      "  rate <sr>          mode dp|smc          threads <n> [scan_shards]\n"
      "  sched graph|barrier              batch scheduler (default: graph)\n"
      "  serve <base_port>                host providers over TCP\n"
      "  connect <host:port> [...]        coordinate remote providers\n"
      "  serve-ledger <port>              host a shared budget authority\n"
      "  ledger connect <host:port> [id]  charge through a remote ledger\n"
      "                                   service   (ledger off = local)\n"
      "  fair on|off                      DWRR admission + deadline\n"
      "                                   eviction (default: FIFO)\n"
      "  weight <analyst> <w>             fair-admission weight (>= 1)\n"
      "  loadgen <qps> <secs> [high,low,reuse] [deadline=<sec>]\n"
      "                                   open-loop load run (per-class\n"
      "                                   p50/p99/p999)\n"
      "  count|sum|sumsq <dim lo hi> [...]\n"
      "  exact count|sum|sumsq <dim lo hi> [...]\n"
      "  batch <k> count|sum|sumsq <dim lo hi> [...]\n"
      "  submit <analyst> [exact] count|sum|sumsq <dim lo hi> [...]\n"
      "         [prio=high|normal|low] [deadline=<sec>] [rounds=<n>]\n"
      "  await <ticket>   cancel <ticket>   tickets\n"
      "  groupby <dim> count|sum <dim lo hi> [...]\n"
      "  cache on|off [horizon]           noisy-answer cache (+ planner "
      "horizon)\n"
      "  plan <analyst> count|sum|sumsq <dim lo hi> [/ count ...]\n"
      "  stats [prefix]                   dump the metric registry\n"
      "                                   (`stats storage` = scan kernels,\n"
      "                                   mmap residency)\n"
      "  trace on|off|export <file>       span tracing (Chrome trace JSON)\n"
      "  audit <analyst>                  budget audit trail\n"
      "  loglevel [debug|info|warn|error] library log filter\n"
      "  schema   status   help   quit\n");
}

int Run() {
  ShellState state;
  std::string line;
  std::printf("fedaqp shell — `help` for commands\n");
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
      continue;
    }

    if (cmd == "open") {
      std::string dataset;
      size_t rows = 0, providers = 4;
      uint64_t seed = 1;
      in >> dataset >> rows >> providers;
      in >> seed;
      SyntheticConfig cfg;
      std::vector<size_t> tensor_dims;
      if (dataset == "adult") {
        cfg = AdultConfig(rows, seed);
        tensor_dims = AdultTensorDims();
      } else if (dataset == "amazon") {
        cfg = AmazonConfig(rows, seed);
        tensor_dims = AmazonTensorDims();
      } else {
        std::printf("unknown dataset '%s' (adult|amazon)\n", dataset.c_str());
        continue;
      }
      Result<std::vector<Table>> parts =
          GenerateFederatedTensors(cfg, tensor_dims, providers);
      if (!parts.ok()) {
        std::printf("error: %s\n", parts.status().ToString().c_str());
        continue;
      }
      size_t cells = 0;
      for (const auto& t : *parts) cells += t.num_rows();
      FederationOptions opts;
      opts.cluster_capacity =
          std::max<size_t>(256, cells / providers / 50);
      opts.layout = ClusterLayout::kShuffled;
      opts.n_min = 8;
      opts.seed = seed;
      Result<std::unique_ptr<Federation>> fed =
          Federation::Open(std::move(parts).value(), opts);
      if (!fed.ok()) {
        std::printf("error: %s\n", fed.status().ToString().c_str());
        continue;
      }
      // Stop serving and drain the client BEFORE replacing the
      // federation: both hold raw pointers into the old providers.
      state.servers.clear();
      state.tickets.clear();
      state.client.reset();
      state.federation = std::move(fed).value();
      // A locally opened federation takes over from any remote session.
      state.remote_endpoints.clear();
      Status st = state.Rebuild();
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        continue;
      }
      std::printf("opened %s: %zu providers, %zu cells, schema: %s\n",
                  dataset.c_str(), providers, cells,
                  state.federation->schema().ToString().c_str());
      continue;
    }

    if (cmd == "budget" || cmd == "rate" || cmd == "mode" ||
        cmd == "threads" || cmd == "sched") {
      if (cmd == "budget") {
        in >> state.per_query.epsilon >> state.per_query.delta >> state.xi >>
            state.psi;
      } else if (cmd == "rate") {
        in >> state.sampling_rate;
      } else if (cmd == "mode") {
        std::string m;
        in >> m;
        state.mode = m == "smc" ? ReleaseMode::kSmc : ReleaseMode::kLocalDp;
      } else if (cmd == "threads") {
        in >> state.num_threads;
        if (state.num_threads == 0) state.num_threads = 1;
        // Optional second arg: intra-provider scan shards sharing the pool.
        size_t shards = 0;
        if (in >> shards) state.num_scan_shards = shards == 0 ? 1 : shards;
      } else {
        std::string which;
        in >> which;
        if (which == "graph") {
          state.scheduler = BatchScheduler::kTaskGraph;
        } else if (which == "barrier") {
          state.scheduler = BatchScheduler::kPhaseBarrier;
        } else {
          std::printf("usage: sched graph|barrier\n");
          continue;
        }
      }
      Status st = state.Rebuild();
      std::printf("%s\n", st.ok() ? "ok (ledgers reset)"
                                  : st.ToString().c_str());
      continue;
    }

    if (cmd == "cache") {
      std::string which;
      in >> which;
      if (which != "on" && which != "off") {
        std::printf("usage: cache on|off [horizon]\n");
        continue;
      }
      state.enable_cache = which == "on";
      size_t horizon = 0;
      state.plan_horizon = (in >> horizon) ? horizon : 0;
      Status st = state.Rebuild();
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        continue;
      }
      if (state.enable_cache && state.plan_horizon > 0) {
        std::printf("cache on, planner horizon %zu (ledgers reset)\n",
                    state.plan_horizon);
      } else {
        std::printf("cache %s (ledgers reset)\n",
                    state.enable_cache ? "on" : "off");
      }
      continue;
    }

    if (cmd == "plan") {
      if (!state.client) {
        std::printf("no federation open\n");
        continue;
      }
      std::string analyst;
      if (!(in >> analyst)) {
        std::printf(
            "usage: plan <analyst> count|sum|sumsq <dim lo hi> "
            "[/ count ...]\n");
        continue;
      }
      std::vector<RangeQuery> workload;
      bool parse_ok = true;
      std::string aggword;
      while (in >> aggword) {
        if (aggword == "/") continue;
        Result<Aggregation> agg = ParseAgg(aggword);
        if (!agg.ok()) {
          std::printf("%s\n", agg.status().ToString().c_str());
          parse_ok = false;
          break;
        }
        Result<RangeQuery> q = ParseQuery(*agg, &in);
        if (!q.ok()) {
          std::printf("error: %s\n", q.status().ToString().c_str());
          parse_ok = false;
          break;
        }
        workload.push_back(std::move(q).value());
        // ParseQuery stops (failbit) at the '/' separator; recover.
        in.clear();
      }
      if (!parse_ok) continue;
      if (workload.empty()) {
        std::printf("plan: no queries given\n");
        continue;
      }
      state.EnsureAnalyst(analyst);
      Result<BudgetPlanner::WorkloadPlan> plan =
          state.client->PlanWorkload(analyst, workload);
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
        continue;
      }
      for (size_t i = 0; i < plan->queries.size(); ++i) {
        const BudgetPlanner::PlannedQuery& pq = plan->queries[i];
        if (pq.predicted_cached) {
          std::printf("  [%zu] cached — free\n", i);
        } else if (!pq.answerable) {
          std::printf("  [%zu] unanswerable (grant exhausted even at the "
                      "epsilon floor)\n", i);
        } else {
          std::printf("  [%zu] eps=%.4f, delta=%.6f\n", i,
                      pq.budget.epsilon, pq.budget.delta);
        }
      }
      std::printf(
          "plan: %zu/%zu answerable (%zu predicted cache hits); "
          "eps %.4f per chargeable query; projected spend "
          "(eps=%.4f, delta=%.6f)\n",
          plan->answerable, plan->queries.size(), plan->predicted_hits,
          plan->eps_per_query, plan->projected_spend.epsilon,
          plan->projected_spend.delta);
      continue;
    }

    if (cmd == "serve") {
      if (!state.federation) {
        std::printf("no federation open\n");
        continue;
      }
      long base_port = 0;
      if (!(in >> base_port) || base_port < 0 || base_port > 65535) {
        std::printf("usage: serve <base_port>  (0 = ephemeral ports)\n");
        continue;
      }
      // Fresh `serve` replaces any previous one (old ports close).
      state.servers.clear();
      Result<std::vector<std::unique_ptr<RpcProviderServer>>> servers =
          state.federation->Serve(static_cast<uint16_t>(base_port));
      if (!servers.ok()) {
        std::printf("error: %s\n", servers.status().ToString().c_str());
        continue;
      }
      state.servers = std::move(servers).value();
      for (size_t i = 0; i < state.servers.size(); ++i) {
        std::printf("  provider %zu listening on port %u\n", i,
                    state.servers[i]->port());
      }
      std::printf("serving; connect from another shell with:\n  connect");
      for (const auto& s : state.servers) {
        std::printf(" 127.0.0.1:%u", s->port());
      }
      std::printf("\n");
      continue;
    }

    if (cmd == "connect") {
      std::vector<std::string> host_ports;
      std::string hp;
      while (in >> hp) host_ports.push_back(hp);
      if (host_ports.empty()) {
        std::printf("usage: connect <host:port> [<host:port> ...]\n");
        continue;
      }
      Result<std::vector<std::shared_ptr<ProviderEndpoint>>> endpoints =
          RemoteEndpoint::ConnectAll(host_ports);
      if (!endpoints.ok()) {
        std::printf("error: %s\n", endpoints.status().ToString().c_str());
        continue;
      }
      state.remote_endpoints = std::move(endpoints).value();
      Status st = state.Rebuild();
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        state.remote_endpoints.clear();
        continue;
      }
      std::printf("connected to %zu remote providers, schema: %s\n",
                  state.remote_endpoints.size(),
                  state.client->schema().ToString().c_str());
      continue;
    }

    if (cmd == "serve-ledger") {
      long port = 0;
      if (!(in >> port) || port < 0 || port > 65535) {
        std::printf("usage: serve-ledger <port>  (0 = ephemeral port)\n");
        continue;
      }
      serve::LedgerService::Options lopts;
      lopts.port = static_cast<uint16_t>(port);
      Result<std::unique_ptr<serve::LedgerService>> svc =
          serve::LedgerService::Start(lopts);
      if (!svc.ok()) {
        std::printf("error: %s\n", svc.status().ToString().c_str());
        continue;
      }
      state.ledger_service = std::move(svc).value();
      // Seed the roster with the shell's default grant so a connecting
      // coordinator's identical re-registration joins instead of failing.
      state.ledger_service->Register(kShellAnalyst, state.xi, state.psi);
      std::printf(
          "ledger service on port %u; attach a coordinator shell with:\n"
          "  ledger connect 127.0.0.1:%u\n",
          state.ledger_service->port(), state.ledger_service->port());
      continue;
    }

    if (cmd == "ledger") {
      std::string sub;
      in >> sub;
      if (sub == "off") {
        if (!state.remote_ledger) {
          std::printf("no shared ledger attached\n");
          continue;
        }
        state.remote_ledger.reset();
        Status st = state.Rebuild();
        std::printf("%s\n", st.ok() ? "back to the in-process ledger "
                                      "(ledgers reset)"
                                    : st.ToString().c_str());
        continue;
      }
      std::string hp;
      if (sub != "connect" || !(in >> hp)) {
        std::printf("usage: ledger connect <host:port> [coordinator_id] | "
                    "ledger off\n");
        continue;
      }
      const size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        std::printf("usage: ledger connect <host:port> [coordinator_id]\n");
        continue;
      }
      unsigned long coordinator = 1;
      in >> coordinator;  // optional; must be unique per coordinator
      Result<std::shared_ptr<serve::RemoteLedger>> remote =
          serve::RemoteLedger::Connect(
              hp.substr(0, colon),
              static_cast<uint16_t>(std::atol(hp.c_str() + colon + 1)),
              static_cast<uint32_t>(coordinator == 0 ? 1 : coordinator));
      if (!remote.ok()) {
        std::printf("error: %s\n", remote.status().ToString().c_str());
        continue;
      }
      state.remote_ledger = std::move(remote).value();
      if (state.federation || !state.remote_endpoints.empty()) {
        Status st = state.Rebuild();
        if (!st.ok()) {
          std::printf("error: %s\n", st.ToString().c_str());
          state.remote_ledger.reset();
          continue;
        }
      }
      std::printf("budget ops now go through %s as coordinator %lu "
                  "(the authoritative ledger lives in the service)\n",
                  hp.c_str(), coordinator == 0 ? 1 : coordinator);
      continue;
    }

    if (cmd == "fair") {
      std::string which;
      in >> which;
      if (which != "on" && which != "off") {
        std::printf("usage: fair on|off\n");
        continue;
      }
      state.fair_admission = which == "on";
      if (state.federation || !state.remote_endpoints.empty()) {
        Status st = state.Rebuild();
        if (!st.ok()) {
          std::printf("error: %s\n", st.ToString().c_str());
          continue;
        }
      }
      std::printf(state.fair_admission
                      ? "fair admission on: DWRR over analyst weights + "
                        "deadline eviction (ledgers reset)\n"
                      : "fair admission off: FIFO arrival order "
                        "(ledgers reset)\n");
      continue;
    }

    if (cmd == "weight") {
      std::string analyst;
      unsigned long w = 0;
      if (!(in >> analyst >> w) || w == 0) {
        std::printf("usage: weight <analyst> <w>  (w >= 1)\n");
        continue;
      }
      state.analyst_weights[analyst] = static_cast<uint32_t>(w);
      if (state.client) {
        state.client->SetAnalystWeight(analyst, static_cast<uint32_t>(w));
      }
      std::printf("weight[%s] = %lu%s\n", analyst.c_str(), w,
                  state.fair_admission ? ""
                                       : " (takes effect with `fair on`)");
      continue;
    }

    if (cmd == "loadgen") {
      if (!state.client) {
        std::printf("no federation open\n");
        continue;
      }
      double qps = 0.0, secs = 0.0;
      if (!(in >> qps >> secs) || qps <= 0.0 || secs <= 0.0) {
        std::printf("usage: loadgen <qps> <secs> [high,low,reuse] "
                    "[deadline=<sec>]\n");
        continue;
      }
      serve::LoadOptions lopts;
      lopts.offered_qps = qps;
      lopts.duration_seconds = secs;
      lopts.num_analysts = 2;
      lopts.analyst_prefix = "lg";
      lopts.seed = 7;
      serve::LoadMix mix;
      mix.reuse_fraction = state.enable_cache ? 0.25 : 0.0;
      std::string opt;
      bool opts_ok = true;
      while (in >> opt) {
        if (opt.rfind("deadline=", 0) == 0) {
          lopts.deadline_seconds = std::atof(opt.c_str() + 9);
        } else if (std::sscanf(opt.c_str(), "%lf,%lf,%lf",
                               &mix.high_fraction, &mix.low_fraction,
                               &mix.reuse_fraction) == 3) {
          // high,low,reuse fractions parsed in place.
        } else {
          std::printf("unknown option '%s'\n", opt.c_str());
          opts_ok = false;
          break;
        }
      }
      if (!opts_ok) continue;
      state.EnsureAnalyst("lg0");
      state.EnsureAnalyst("lg1");
      // Wide count queries over dimension 0 — broad enough that the
      // per-provider admission predicate accepts them at any scale.
      const Schema& s = state.client->schema();
      const long dom = static_cast<long>(s.dim(0).domain_size);
      std::vector<RangeQuery> workload;
      for (long i = 0; i < 8; ++i) {
        workload.push_back(RangeQuery(
            Aggregation::kCount,
            {DimRange{0, (dom * i) / 32, dom - 1 - i}}));
      }
      serve::LoadGenerator gen(state.client.get(), std::move(workload));
      serve::LoadReport rep = gen.Run(lopts, mix);
      std::printf(
          "offered %.0f q/s for %.2f s: achieved %.1f q/s\n"
          "  %llu submitted: %llu ok (%llu cache-served), %llu refused, "
          "%llu evicted, %llu budget-refused, %llu failed\n",
          rep.offered_qps, rep.wall_seconds, rep.achieved_qps,
          static_cast<unsigned long long>(rep.submitted),
          static_cast<unsigned long long>(rep.ok),
          static_cast<unsigned long long>(rep.cache_served),
          static_cast<unsigned long long>(rep.refused),
          static_cast<unsigned long long>(rep.evicted),
          static_cast<unsigned long long>(rep.budget_refused),
          static_cast<unsigned long long>(rep.failed));
      const char* names[3] = {"high", "normal", "low"};
      for (size_t c = 0; c < 3; ++c) {
        const serve::ClassReport& cr = rep.per_class[c];
        if (cr.submitted == 0) continue;
        std::printf(
            "  %-6s %llu/%llu ok  p50 %.2f ms  p99 %.2f ms  p999 %.2f ms\n",
            names[c], static_cast<unsigned long long>(cr.ok),
            static_cast<unsigned long long>(cr.submitted),
            cr.p50_seconds * 1e3, cr.p99_seconds * 1e3,
            cr.p999_seconds * 1e3);
      }
      continue;
    }

    if (cmd == "batch") {
      if (!state.client) {
        std::printf("no federation open\n");
        continue;
      }
      size_t k = 0;
      std::string aggword;
      if (!(in >> k >> aggword) || k == 0) {
        std::printf("usage: batch <k> count|sum|sumsq <dim lo hi> ...\n");
        continue;
      }
      Result<Aggregation> agg = ParseAgg(aggword);
      if (!agg.ok()) {
        std::printf("%s\n", agg.status().ToString().c_str());
        continue;
      }
      Result<RangeQuery> q = ParseQuery(*agg, &in);
      if (!q.ok()) {
        std::printf("error: %s\n", q.status().ToString().c_str());
        continue;
      }
      // Pause around the burst so the whole batch lands in one admission
      // round — the batch stats below then describe exactly these k.
      state.client->Pause();
      std::vector<QuerySpec> specs(k);
      for (QuerySpec& spec : specs) {
        spec.analyst = kShellAnalyst;
        spec.query = *q;
      }
      std::vector<QueryTicket> batch_tickets =
          state.client->SubmitAll(std::move(specs));
      state.client->Resume();
      size_t answered = 0;
      double simulated_total = 0.0;
      for (size_t i = 0; i < batch_tickets.size(); ++i) {
        Result<QueryResponse> resp = batch_tickets[i].Wait();
        if (resp.ok()) {
          const QueryBreakdown& b = resp->breakdown;
          std::printf(
              "  [%zu] %.1f  (%.2f ms simulated: providers %.2f, "
              "aggregator %.2f, network %.2f)\n",
              i, resp->estimate, b.TotalSeconds() * 1e3,
              b.provider_compute_seconds * 1e3,
              b.aggregator_compute_seconds * 1e3, b.network_seconds * 1e3);
          simulated_total += b.TotalSeconds();
          ++answered;
        } else {
          std::printf("  [%zu] error: %s\n", i,
                      resp.status().ToString().c_str());
        }
      }
      state.client->WaitIdle();
      const BatchRunStats& stats =
          state.client->orchestrator().last_batch_stats();
      std::printf(
          "batch: %zu/%zu answered; %.2f ms simulated critical path "
          "(sum over queries); %.2f ms wall, %.2f ms critical path as "
          "scheduled\n",
          answered, batch_tickets.size(), simulated_total * 1e3,
          stats.wall_seconds * 1e3, stats.critical_path_seconds * 1e3);
      continue;
    }

    if (cmd == "submit") {
      if (!state.client) {
        std::printf("no federation open\n");
        continue;
      }
      std::string analyst, aggword;
      if (!(in >> analyst >> aggword)) {
        std::printf(
            "usage: submit <analyst> [exact] count|sum|sumsq <dim lo hi> "
            "... [prio=high|normal|low] [deadline=<sec>] [rounds=<n>]\n");
        continue;
      }
      QuerySpec spec;
      spec.analyst = analyst;
      if (aggword == "exact") {
        spec.kind = QueryKind::kExact;
        if (!(in >> aggword)) {
          std::printf("usage: submit <analyst> exact count|sum|sumsq ...\n");
          continue;
        }
      }
      Result<Aggregation> agg = ParseAgg(aggword);
      if (!agg.ok()) {
        std::printf("%s\n", agg.status().ToString().c_str());
        continue;
      }
      Result<RangeQuery> q = ParseQuery(*agg, &in);
      if (!q.ok()) {
        std::printf("error: %s\n", q.status().ToString().c_str());
        continue;
      }
      spec.query = std::move(q).value();
      // ParseQuery stopped at the first non-numeric token; the rest of
      // the line is trailing key=value options.
      in.clear();
      std::string opt;
      bool opts_ok = true;
      while (in >> opt) {
        if (opt.rfind("prio=", 0) == 0) {
          std::string p = opt.substr(5);
          if (p == "high") {
            spec.priority = QueryPriority::kHigh;
          } else if (p == "normal") {
            spec.priority = QueryPriority::kNormal;
          } else if (p == "low") {
            spec.priority = QueryPriority::kLow;
          } else {
            std::printf("unknown priority '%s'\n", p.c_str());
            opts_ok = false;
            break;
          }
        } else if (opt.rfind("deadline=", 0) == 0) {
          spec.deadline_seconds = std::atof(opt.c_str() + 9);
        } else if (opt.rfind("rounds=", 0) == 0) {
          if (spec.kind == QueryKind::kExact) {
            std::printf("rounds= does not combine with exact (the exact "
                        "baseline has no refinement rounds)\n");
            opts_ok = false;
            break;
          }
          spec.kind = QueryKind::kProgressive;
          spec.progressive_rounds =
              static_cast<size_t>(std::atol(opt.c_str() + 7));
        } else {
          std::printf("unknown option '%s'\n", opt.c_str());
          opts_ok = false;
          break;
        }
      }
      if (!opts_ok) continue;
      if (spec.kind != QueryKind::kExact) state.EnsureAnalyst(analyst);
      QueryTicket ticket = state.client->Submit(std::move(spec));
      state.tickets.emplace(ticket.id(), ticket);
      std::printf("ticket %llu submitted (analyst=%s, prio=%s)\n",
                  static_cast<unsigned long long>(ticket.id()),
                  ticket.spec().analyst.c_str(),
                  PriorityName(ticket.spec().priority));
      continue;
    }

    if (cmd == "await" || cmd == "cancel") {
      unsigned long long id = 0;
      if (!(in >> id)) {
        std::printf("usage: %s <ticket>\n", cmd.c_str());
        continue;
      }
      auto it = state.tickets.find(id);
      if (it == state.tickets.end()) {
        std::printf("no ticket %llu\n", id);
        continue;
      }
      if (cmd == "cancel") {
        bool effective = it->second.Cancel();
        std::printf(effective
                        ? "ticket %llu cancelled (unspent budget refunded at "
                          "delivery)\n"
                        : "ticket %llu: too late to cancel (result stands)\n",
                    id);
        continue;
      }
      PrintTicketOutcome(id, it->second);
      continue;
    }

    if (cmd == "tickets") {
      if (state.tickets.empty()) {
        std::printf("no tickets\n");
        continue;
      }
      for (auto& entry : state.tickets) {
        QueryTicket& ticket = entry.second;
        std::printf("  %llu  %-8s prio=%-6s ",
                    static_cast<unsigned long long>(entry.first),
                    ticket.spec().kind == QueryKind::kExact
                        ? "exact"
                        : ticket.spec().analyst.c_str(),
                    PriorityName(ticket.spec().priority));
        if (!ticket.Done()) {
          std::printf("pending\n");
          continue;
        }
        Result<QueryResponse> resp = ticket.TryGet();
        if (resp.ok()) {
          std::printf("done: %.1f\n", resp->estimate);
        } else {
          std::printf("%s\n", resp.status().ToString().c_str());
        }
      }
      continue;
    }

    if (cmd == "schema") {
      if (!state.client) {
        std::printf("no federation open\n");
        continue;
      }
      const Schema& s = state.client->schema();
      for (size_t d = 0; d < s.num_dims(); ++d) {
        std::printf("  [%zu] %s in [0, %lld)\n", d, s.dim(d).name.c_str(),
                    static_cast<long long>(s.dim(d).domain_size));
      }
      continue;
    }

    if (cmd == "status") {
      if (!state.client) {
        std::printf("no federation open\n");
        continue;
      }
      const AnalystLedger& ledger = state.client->ledger();
      for (const std::string& analyst : ledger.Analysts()) {
        Result<PrivacyBudget> spent = ledger.Spent(analyst);
        Result<PrivacyBudget> remaining = ledger.Remaining(analyst);
        if (!spent.ok() || !remaining.ok()) continue;
        std::printf(
            "  %-10s spent (eps=%.4f, delta=%.6f), remaining "
            "(eps=%.2f, delta=%.4f)",
            analyst.c_str(), spent->epsilon, spent->delta,
            remaining->epsilon, remaining->delta);
        Result<PrivacyBudget> saved = ledger.Saved(analyst);
        if (saved.ok() && (saved->epsilon > 0.0 || saved->delta > 0.0)) {
          std::printf(", cache saved (eps=%.4f, delta=%.6f)",
                      saved->epsilon, saved->delta);
        }
        std::printf("\n");
      }
      // Everything below reads the process-wide MetricRegistry — the same
      // numbers `stats` dumps raw — instead of re-plumbing each
      // subsystem's private counters through the shell.
      auto& reg = obs::MetricRegistry::Global();
      const auto counter = [&reg](const char* name) {
        return static_cast<unsigned long long>(reg.GetCounter(name)->Value());
      };
      if (state.client->cache() != nullptr) {
        std::printf(
            "cache: %llu lookups — %llu exact hits, %llu full + %llu "
            "partial compositions, %llu misses; %llu invalidated\n",
            counter("cache.lookups"), counter("cache.exact_hits"),
            counter("cache.full_compositions"),
            counter("cache.partial_compositions"), counter("cache.misses"),
            counter("cache.invalidated"));
      }
      std::printf("sr=%.2f; mode=%s; sched=%s; %llu admission rounds\n",
                  state.sampling_rate,
                  state.mode == ReleaseMode::kSmc ? "smc" : "dp",
                  state.scheduler == BatchScheduler::kTaskGraph ? "graph"
                                                                : "barrier",
                  static_cast<unsigned long long>(
                      state.client->num_batches()));
      std::printf("scheduler: %llu graphs run; parked high-water %.0f\n",
                  counter("scheduler.graphs_run"),
                  reg.GetGauge("scheduler.parked_peak")->Value());
      const unsigned long long batches = counter("rpc.doorbell_batches");
      if (batches > 0 || !state.remote_endpoints.empty()) {
        std::printf(
            "transport: %llu batch exchanges (%.2f calls/batch); "
            "%llu bytes sent, %llu received\n",
            batches,
            batches > 0 ? static_cast<double>(
                              counter("rpc.coalesced_calls")) /
                              static_cast<double>(batches)
                        : 0.0,
            counter("rpc.client.bytes_sent"),
            counter("rpc.client.bytes_received"));
      }
      const unsigned long long rows_scanned = counter("storage.rows_scanned");
      const double mapped_bytes = reg.GetGauge("storage.bytes_mapped")->Value();
      if (rows_scanned > 0 || mapped_bytes > 0.0) {
        std::printf(
            "storage: %llu rows scanned (%s kernel); %.1f MiB mmap-resident\n",
            rows_scanned, ScanBackendName(ActiveScanBackend()),
            mapped_bytes / (1024.0 * 1024.0));
      }
      continue;
    }

    if (cmd == "stats") {
      std::string prefix;
      in >> prefix;  // optional
      const std::vector<obs::MetricSample> samples =
          obs::MetricRegistry::Global().Snapshot(prefix);
      if (samples.empty()) {
        std::printf("no metrics%s%s recorded yet\n",
                    prefix.empty() ? "" : " under ", prefix.c_str());
        continue;
      }
      for (const obs::MetricSample& s : samples) {
        switch (s.kind) {
          case obs::MetricSample::Kind::kCounter:
            std::printf("  %-32s %.0f\n", s.name.c_str(), s.value);
            break;
          case obs::MetricSample::Kind::kGauge:
            std::printf("  %-32s %g (gauge)\n", s.name.c_str(), s.value);
            break;
          case obs::MetricSample::Kind::kHistogram:
            std::printf(
                "  %-32s n=%.0f p50=%.3gms p95=%.3gms p99=%.3gms "
                "p999=%.3gms\n",
                s.name.c_str(), s.value, s.p50 * 1e3, s.p95 * 1e3,
                s.p99 * 1e3, s.p999 * 1e3);
            break;
        }
      }
      continue;
    }

    if (cmd == "trace") {
      std::string sub;
      in >> sub;
      if (sub == "on") {
        obs::TraceRecorder::Global().SetEnabled(true);
        std::printf("tracing on (%zu-span ring)\n",
                    obs::TraceRecorder::Global().capacity());
      } else if (sub == "off") {
        obs::TraceRecorder::Global().SetEnabled(false);
        std::printf("tracing off (%zu spans held, %llu dropped)\n",
                    obs::TraceRecorder::Global().size(),
                    static_cast<unsigned long long>(
                        obs::TraceRecorder::Global().dropped()));
      } else if (sub == "export") {
        std::string path;
        if (!(in >> path)) {
          std::printf("usage: trace export <file>\n");
          continue;
        }
        Status st = obs::TraceRecorder::Global().ExportChromeTrace(path);
        if (!st.ok()) {
          std::printf("error: %s\n", st.ToString().c_str());
          continue;
        }
        std::printf("wrote %zu spans to %s (load in Perfetto or "
                    "chrome://tracing)\n",
                    obs::TraceRecorder::Global().size(), path.c_str());
      } else {
        std::printf("usage: trace on|off|export <file>\n");
      }
      continue;
    }

    if (cmd == "audit") {
      if (!state.client) {
        std::printf("no federation open\n");
        continue;
      }
      std::string analyst;
      if (!(in >> analyst)) {
        std::printf("usage: audit <analyst>\n");
        continue;
      }
      const std::vector<obs::BudgetAuditLog::Record> records =
          state.client->audit_log().ForAnalyst(analyst);
      if (records.empty()) {
        std::printf("no audit records for '%s'\n", analyst.c_str());
        continue;
      }
      for (const auto& r : records) {
        std::printf("  #%-6llu seq=%-6llu %-8s eps=%.6f delta=%.8f\n",
                    static_cast<unsigned long long>(r.index),
                    static_cast<unsigned long long>(r.seq),
                    obs::BudgetAuditLog::KindName(r.kind), r.epsilon,
                    r.delta);
      }
      continue;
    }

    if (cmd == "loglevel") {
      std::string name;
      if (!(in >> name)) {
        std::printf("loglevel is %s\n", LogLevelName(GetLogLevel()));
        continue;
      }
      LogLevel level;
      if (!LogLevelFromName(name, &level)) {
        std::printf("usage: loglevel debug|info|warn|error\n");
        continue;
      }
      SetLogLevel(level);
      std::printf("loglevel set to %s\n", LogLevelName(level));
      continue;
    }

    if (cmd == "groupby") {
      if (!state.client) {
        std::printf("no federation open\n");
        continue;
      }
      long gdim;
      std::string aggword;
      if (!(in >> gdim >> aggword)) {
        std::printf("usage: groupby <dim> count|sum [<dim lo hi> ...]\n");
        continue;
      }
      Result<Aggregation> agg = ParseAgg(aggword);
      if (!agg.ok()) {
        std::printf("%s\n", agg.status().ToString().c_str());
        continue;
      }
      Result<RangeQuery> base = ParseQuery(*agg, &in);
      GroupByOptions gbo;
      gbo.group_dim = static_cast<size_t>(gdim);
      // Every bucket is a query the shell analyst submits and is charged
      // for, like any other private query.
      Result<GroupByResult> grouped =
          PrivateGroupBy(state.client.get(), kShellAnalyst, *base, gbo);
      if (!grouped.ok()) {
        std::printf("error: %s\n", grouped.status().ToString().c_str());
        continue;
      }
      for (const auto& b : grouped->buckets) {
        std::printf("  %lld: %.0f\n", static_cast<long long>(b.group_value),
                    b.estimate);
      }
      std::printf("(parallel composition: eps=%.4f for all %zu buckets)\n",
                  grouped->spent.epsilon, grouped->buckets.size());
      continue;
    }

    bool exact = cmd == "exact";
    std::string aggword = cmd;
    if (exact && !(in >> aggword)) {
      std::printf("usage: exact count|sum|sumsq <dim lo hi> ...\n");
      continue;
    }
    Result<Aggregation> agg = ParseAgg(aggword);
    if (!agg.ok()) {
      std::printf("unknown command '%s' (try `help`)\n", cmd.c_str());
      continue;
    }
    if (!state.client) {
      std::printf("no federation open\n");
      continue;
    }
    Result<RangeQuery> q = ParseQuery(*agg, &in);
    if (!q.ok()) {
      std::printf("error: %s\n", q.status().ToString().c_str());
      continue;
    }
    QuerySpec spec;
    spec.analyst = kShellAnalyst;
    spec.query = std::move(q).value();
    if (exact) spec.kind = QueryKind::kExact;
    Result<QueryResponse> resp = state.client->Submit(std::move(spec)).Wait();
    if (!resp.ok()) {
      std::printf("error: %s\n", resp.status().ToString().c_str());
      continue;
    }
    PrintResponse(exact ? "exact" : "private", *resp);
  }
  return 0;
}

}  // namespace
}  // namespace fedaqp

int main() { return fedaqp::Run(); }
