#include "federation/orchestrator.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "exec/task_graph.h"
#include "rpc/wire.h"

namespace fedaqp {

namespace {

/// Exact (sessionless) queries live in a tagged TaskKey-id namespace; see
/// QueryOrchestrator::next_exact_id_.
constexpr uint64_t kExactQueryIdTag = 1ull << 63;

/// Mutable per-query execution state of the batched protocol. Slots are
/// indexed by endpoint so that parallel phases write disjoint memory.
struct QueryState {
  bool active = false;
  bool exact = false;
  /// Consumed a session id for cache determinism but runs nothing.
  bool reserved = false;
  uint64_t id = 0;
  uint64_t nonce = 0;
  /// Index of the provider-major group a private query runs in.
  size_t group = 0;
  /// Effective per-query budget (config default or the spec's override)
  /// and its split shares — per-state so a planner-assigned epsilon
  /// calibrates this query's noise without touching its batch peers.
  PrivacyBudget budget{0.0, 0.0};
  double eps_o = 0.0;
  double eps_s = 0.0;
  double eps_e = 0.0;
  double delta = 0.0;
  /// The driving spec (owned by the ExecuteBatchSpecs caller, alive for
  /// the whole batch): query text, urgency, cancel token, callback.
  const QueryExecSpec* spec = nullptr;
  Status status = Status::OK();
  std::unique_ptr<SimNetwork> network;
  std::vector<CoverReply> covers;
  std::vector<ProviderSummary> summaries;
  std::vector<LocalEstimate> estimates;
  std::vector<ExactScanReply> exact_scans;
  std::vector<Status> phase1_status;
  std::vector<Status> phase2_status;
  AllocationPlan plan;
  QueryResponse response;

  /// Downgrades the query to failed (keeps only the first error).
  void Fail(const Status& s) {
    if (status.ok()) status = s;
    active = false;
  }
};

/// Batch-wide constants shared by every protocol step, so the barrier
/// and task-graph schedulers run the exact same bodies — answers,
/// statuses, and SimNetwork charges stay bit-identical by construction.
struct BatchContext {
  const std::vector<std::shared_ptr<ProviderEndpoint>>* endpoints = nullptr;
  Aggregator* aggregator = nullptr;
  const FederationConfig* config = nullptr;
  bool local_noise = true;

  size_t num_endpoints() const { return endpoints->size(); }
};

/// One provider-major group: at most kQueriesPerProviderBatch private
/// queries of one priority class, in (deadline, session id) order. Every
/// provider sees the group as one OpenBatch and one EstimateBatch.
struct QueryGroup {
  std::vector<QueryState*> members;
};

/// Makes one batch call for a stage body. Bodies often run on pool
/// workers whose tasks must not throw, so an exception — or a reply count
/// that does not match the request count — fails every item instead.
template <typename Reply, typename Call>
std::vector<Result<Reply>> GuardedBatch(size_t num_items, Call call) {
  Status failure = Status::OK();
  try {
    std::vector<Result<Reply>> replies = call();
    if (replies.size() == num_items) return replies;
    failure = Status::Internal(
        "endpoint batch reply count does not match its request count");
  } catch (const std::exception& ex) {
    failure = Status::Internal(std::string("endpoint batch threw: ") + ex.what());
  } catch (...) {
    failure = Status::Internal("endpoint batch threw");
  }
  return std::vector<Result<Reply>>(num_items, Result<Reply>(failure));
}

/// Steps 1-2 for one (group, endpoint): one OpenBatch — cover
/// identification + DP summary for every member. Claims each member's
/// kSummaryPublished composition stage as it builds the request: once
/// any endpoint passes this point, eps_O is irrevocably spent, and a
/// member cancelled earlier is left out of the call. No call at all when
/// no member is left.
void RunOpenStage(const BatchContext& ctx, const QueryGroup& group, size_t e) {
  std::vector<OpenRequest> requests;
  std::vector<QueryState*> owners;
  requests.reserve(group.members.size());
  owners.reserve(group.members.size());
  for (QueryState* st : group.members) {
    QueryCancelToken* cancel = st->spec->cancel.get();
    if (cancel != nullptr && !cancel->Claim(QueryStage::kSummaryPublished)) {
      st->phase1_status[e] =
          Status::Cancelled("query cancelled before its DP summary");
      continue;
    }
    OpenRequest req;
    req.cover = CoverRequest{st->id, st->nonce, st->spec->query};
    req.eps_allocation = st->eps_o;
    requests.push_back(std::move(req));
    owners.push_back(st);
  }
  if (requests.empty()) return;
  ProviderEndpoint* endpoint = (*ctx.endpoints)[e].get();
  std::vector<Result<OpenReply>> replies = GuardedBatch<OpenReply>(
      requests.size(), [&] { return endpoint->OpenBatch(requests); });
  for (size_t i = 0; i < owners.size(); ++i) {
    QueryState& st = *owners[i];
    if (!replies[i].ok()) {
      st.phase1_status[e] = replies[i].status();
      continue;
    }
    st.covers[e] = replies[i]->cover;
    st.summaries[e] = replies[i]->summary.summary;
    st.summaries[e].work += st.covers[e].work;
  }
}

/// True when endpoint `e` holds an open session for this query: its Open
/// ran and succeeded (a failed Open leaves none). Only private queries
/// have phase-1 slots; every such slot starts OK and is final before any
/// estimate-stage body runs.
bool HasOpenSession(const QueryState& st, size_t e) {
  return e < st.phase1_status.size() && st.phase1_status[e].ok();
}

/// Step 3 for one query: phase-1 gather, allocation at the aggregator,
/// steps 4-5 request fan-out. Coordinator-side; requires every phase-1
/// slot of this query to be final.
void RunAllocation(const BatchContext& ctx, QueryState& st) {
  if (!st.active || st.exact) return;
  const size_t num_endpoints = ctx.num_endpoints();
  double phase1_max = 0.0;
  for (size_t e = 0; e < num_endpoints; ++e) {
    if (!st.phase1_status[e].ok()) {
      st.Fail(st.phase1_status[e]);
      break;
    }
    const ProviderWorkStats& work = st.summaries[e].work;
    phase1_max = std::max(phase1_max, work.compute_seconds);
    st.response.breakdown.clusters_scanned += work.clusters_scanned;
    st.response.breakdown.rows_scanned += work.rows_scanned;
    st.response.breakdown.metadata_lookups += work.metadata_lookups;
  }
  if (!st.active) return;
  st.response.breakdown.provider_compute_seconds = phase1_max;
  // Open-reply gather. Its size is value-independent, so a
  // default-constructed instance measures it.
  st.network->UniformRound(num_endpoints, WireSize(OpenReply{}));

  Stopwatch agg_timer;
  Result<AllocationPlan> plan =
      ctx.aggregator->Allocate(st.summaries, ctx.config->sampling_rate);
  st.response.breakdown.aggregator_compute_seconds += agg_timer.ElapsedSeconds();
  if (!plan.ok()) {
    st.Fail(plan.status());
    return;
  }
  st.plan = std::move(plan).value();
  st.response.allocation = st.plan.sample_sizes;
  // Steps 4-5 requests out: the allocation travels inside the
  // Approximate frame; providers below N_min get the (smaller) exact
  // bypass frame instead — a per-link Round, not a uniform one.
  std::vector<size_t> request_bytes(num_endpoints);
  for (size_t e = 0; e < num_endpoints; ++e) {
    request_bytes[e] = st.covers[e].should_approximate
                           ? WireSize(ApproximateRequest{})
                           : WireSize(ExactAnswerRequest{});
  }
  st.network->Round(request_bytes);
}

/// Steps 3-5 coordinator side for every member of a group.
void RunGroupAllocation(const BatchContext& ctx, const QueryGroup& group) {
  for (QueryState* st : group.members) RunAllocation(ctx, *st);
}

/// Steps 4-6 for one (group, endpoint): one EstimateBatch carrying each
/// live member's sample/scan/estimate or exact bypass, which ends the
/// endpoint's session. Claims each member's kEstimateReleased stage as it
/// builds the request: past this point the whole per-query budget is
/// spent and cancellation can refund nothing. A member that failed (at
/// another endpoint or the aggregator) or was cancelled after its summary
/// gets an EndQuery item for its open session instead. Requires the
/// group's allocation to be final; no call at all when no item is left.
void RunEstimateStage(const BatchContext& ctx, const QueryGroup& group,
                      size_t e) {
  std::vector<EstimateItem> items;
  /// Aligned with `items`; null for EndQuery items.
  std::vector<QueryState*> owners;
  items.reserve(group.members.size());
  owners.reserve(group.members.size());
  const auto end_session = [&](const QueryState& st) {
    if (!HasOpenSession(st, e)) return;
    items.emplace_back(EndQueryRequest{st.id});
    owners.push_back(nullptr);
  };
  for (QueryState* st : group.members) {
    if (!st->active) {
      end_session(*st);
      continue;
    }
    QueryCancelToken* cancel = st->spec->cancel.get();
    if (cancel != nullptr && !cancel->Claim(QueryStage::kEstimateReleased)) {
      st->phase2_status[e] =
          Status::Cancelled("query cancelled before its estimate");
      end_session(*st);
      continue;
    }
    if (!st->covers[e].should_approximate) {
      ExactAnswerRequest req;
      req.query_id = st->id;
      req.eps_estimate = st->eps_e;
      req.add_noise = ctx.local_noise;
      items.emplace_back(req);
    } else {
      // Eq. 6 bounds every participating provider's allocation below by
      // 1; noisy ~N^Q can zero out a provider's solver share, in which
      // case the provider still samples minimally rather than falling
      // back to a full covering-set scan.
      ApproximateRequest req;
      req.query_id = st->id;
      req.sample_size = std::max<size_t>(st->plan.sample_sizes[e], 1);
      req.eps_sampling = st->eps_s;
      req.eps_estimate = st->eps_e;
      req.delta = st->delta;
      req.add_noise = ctx.local_noise;
      items.emplace_back(req);
    }
    owners.push_back(st);
  }
  if (items.empty()) return;
  ProviderEndpoint* endpoint = (*ctx.endpoints)[e].get();
  std::vector<Result<EstimateReply>> replies = GuardedBatch<EstimateReply>(
      items.size(), [&] { return endpoint->EstimateBatch(items); });
  for (size_t i = 0; i < owners.size(); ++i) {
    if (owners[i] == nullptr) continue;  // EndQuery is best-effort.
    QueryState& st = *owners[i];
    if (!replies[i].ok()) {
      st.phase2_status[e] = replies[i].status();
    } else {
      st.estimates[e] = std::move(replies[i]).value().estimate;
    }
  }
}

/// Exact-spec steps for one (query, endpoint): the sessionless full scan,
/// one call per node, so ExactFullScan keeps its reconnect-and-retry
/// path. Claims kEstimateReleased first, like every estimate.
void RunExactScan(const BatchContext& ctx, QueryState& st, size_t e) {
  QueryCancelToken* cancel = st.spec->cancel.get();
  if (cancel != nullptr && !cancel->Claim(QueryStage::kEstimateReleased)) {
    st.phase2_status[e] =
        Status::Cancelled("query cancelled before its estimate");
    return;
  }
  try {
    Result<ExactScanReply> scan =
        (*ctx.endpoints)[e]->ExactFullScan(ExactScanRequest{st.spec->query});
    if (!scan.ok()) {
      st.phase2_status[e] = scan.status();
    } else {
      st.exact_scans[e] = std::move(scan).value();
    }
  } catch (const std::exception& ex) {
    st.phase2_status[e] =
        Status::Internal(std::string("exact scan threw: ") + ex.what());
  } catch (...) {
    st.phase2_status[e] = Status::Internal("exact scan threw");
  }
}

/// Exact-spec step 7: scan gather, plain-text sum, response finalization.
/// Provider seconds are the max across endpoints, and the only wire
/// traffic is the scan request broadcast (charged at admission) plus one
/// framed scan reply per provider.
void RunExactCombine(const BatchContext& ctx, QueryState& st) {
  const size_t num_endpoints = ctx.num_endpoints();
  double provider_max = 0.0;
  double total = 0.0;
  for (size_t e = 0; e < num_endpoints; ++e) {
    if (!st.phase2_status[e].ok()) {
      st.Fail(st.phase2_status[e]);
      break;
    }
    const ExactScanReply& scan = st.exact_scans[e];
    total += scan.value;
    provider_max = std::max(provider_max, scan.work.compute_seconds);
    st.response.breakdown.clusters_scanned += scan.work.clusters_scanned;
    st.response.breakdown.rows_scanned += scan.work.rows_scanned;
  }
  if (!st.active) return;
  // Plain-text result sharing: one framed scan reply per provider.
  st.network->UniformRound(num_endpoints, WireSize(ExactScanReply{}));
  st.response.estimate = total;
  st.response.approximated = false;
  st.response.breakdown.provider_compute_seconds = provider_max;
  st.response.breakdown.network_seconds = st.network->stats().seconds;
  st.response.breakdown.network_bytes = st.network->stats().bytes;
  st.response.breakdown.network_messages = st.network->stats().messages;
}

/// Step 7 for one query: estimate gather, combination, response
/// finalization. Coordinator-side; requires every phase-2 slot of this
/// query to be final. CombineSmc draws from the aggregator's one RNG
/// stream, so in SMC mode combines must run in submission order across
/// queries — the task graph chains them explicitly (local-DP combines
/// are pure sums and stay unchained).
void RunCombine(const BatchContext& ctx, QueryState& st) {
  if (!st.active) return;
  if (st.exact) {
    RunExactCombine(ctx, st);
    return;
  }
  const size_t num_endpoints = ctx.num_endpoints();
  double phase2_max = 0.0;
  for (size_t e = 0; e < num_endpoints; ++e) {
    if (!st.phase2_status[e].ok()) {
      st.Fail(st.phase2_status[e]);
      break;
    }
    const ProviderWorkStats& work = st.estimates[e].work;
    phase2_max = std::max(phase2_max, work.compute_seconds);
    st.response.breakdown.clusters_scanned += work.clusters_scanned;
    st.response.breakdown.rows_scanned += work.rows_scanned;
    st.response.breakdown.metadata_lookups += work.metadata_lookups;
    if (!st.estimates[e].exact) st.response.approximated = true;
  }
  if (!st.active) return;
  st.response.breakdown.provider_compute_seconds += phase2_max;

  // Estimate-reply gather (both modes: SMC still moves the clean
  // estimate struct to the aggregator; the oblivious combine charges
  // its share exchanges on top).
  st.network->UniformRound(num_endpoints, WireSize(EstimateReply{}));
  Stopwatch agg_timer;
  if (ctx.local_noise) {
    st.response.estimate = ctx.aggregator->CombineNoisy(st.estimates);
    double variance = 0.0;
    for (const auto& est : st.estimates) variance += est.variance;
    st.response.stderr_estimate = std::sqrt(variance);
  } else {
    SmcProtocol protocol(FixedPoint(), ctx.config->smc_cost);
    Result<double> combined = ctx.aggregator->CombineSmc(
        st.estimates, st.eps_e, protocol, st.network.get());
    if (!combined.ok()) {
      st.Fail(combined.status());
      return;
    }
    st.response.estimate = *combined;
  }
  st.response.breakdown.aggregator_compute_seconds += agg_timer.ElapsedSeconds();

  st.response.breakdown.network_seconds = st.network->stats().seconds;
  st.response.breakdown.network_bytes = st.network->stats().bytes;
  st.response.breakdown.network_messages = st.network->stats().messages;
  st.response.spent = st.budget;
}

/// Splits the batch's private queries into provider-major groups: by
/// priority class (most urgent first), each class in (deadline, session
/// id) order, cut into chunks of at most kQueriesPerProviderBatch.
/// Records each member's group index.
std::vector<QueryGroup> GroupPrivateQueries(std::vector<QueryState>& states) {
  std::vector<QueryState*> order;
  for (QueryState& st : states) {
    if (st.active && !st.exact) order.push_back(&st);
  }
  std::sort(order.begin(), order.end(),
            [](const QueryState* a, const QueryState* b) {
              if (a->spec->priority != b->spec->priority) {
                return a->spec->priority < b->spec->priority;
              }
              if (a->spec->deadline != b->spec->deadline) {
                return a->spec->deadline < b->spec->deadline;
              }
              return a->id < b->id;
            });
  std::vector<QueryGroup> groups;
  for (QueryState* st : order) {
    if (groups.empty() ||
        groups.back().members.size() == kQueriesPerProviderBatch ||
        groups.back().members.front()->spec->priority != st->spec->priority) {
      groups.emplace_back();
    }
    st->group = groups.size() - 1;
    groups.back().members.push_back(st);
  }
  return groups;
}

/// Lock-step reference scheduler: each group's stages behind ParallelFor
/// barriers, one group at a time, then the exact scans, then every
/// combine and delivery in submission order. It runs the graph's stage
/// bodies, so both schedulers share one code path per step.
void RunBatchBarrier(const BatchContext& ctx, ThreadPool* pool,
                     std::vector<QueryState>& states,
                     const std::vector<QueryGroup>& groups) {
  const size_t num_endpoints = ctx.num_endpoints();
  for (const QueryGroup& group : groups) {
    ParallelFor(pool, num_endpoints,
                [&](size_t e) { RunOpenStage(ctx, group, e); });
    RunGroupAllocation(ctx, group);
    ParallelFor(pool, num_endpoints,
                [&](size_t e) { RunEstimateStage(ctx, group, e); });
  }
  ParallelFor(pool, num_endpoints, [&](size_t e) {
    for (QueryState& st : states) {
      if (st.active && st.exact) RunExactScan(ctx, st, e);
    }
  });
  // Step 7 (coordinator, submission order — the aggregator's own RNG
  // stream stays deterministic).
  for (QueryState& st : states) RunCombine(ctx, st);
  // Per-query delivery, submission order (the graph scheduler instead
  // delivers each query the moment its combine finishes).
  for (QueryState& st : states) {
    if (st.reserved) continue;
    if (st.spec->on_done) st.spec->on_done(st.status, st.response);
  }
}

/// Barrier-free scheduler: one dependency graph drained by the shared
/// pool. Each group of private queries is open(e) for every provider ->
/// allocate -> estimate(e) for every provider, and each member then gets
/// its own combine -> deliver. An exact query is scan(e) per provider ->
/// combine -> deliver. A group's open(e) waits for estimate(e) of the
/// group two places earlier, so a provider holds at most two groups'
/// sessions at once (the server caps sessions per connection). Across
/// queries, only SMC-mode combines are chained, in submission order (the
/// aggregator's single RNG stream); everything else overlaps freely, in
/// ready-queue urgency order (priority, then deadline). Shard fan-outs
/// inside endpoint calls become child work of their stage node (see
/// ShardedScanExecutor::ForEachShard).
void RunBatchTaskGraph(const BatchContext& ctx, ThreadPool* pool,
                       std::vector<QueryState>& states,
                       const std::vector<QueryGroup>& groups,
                       BatchRunStats* stats) {
  const size_t num_endpoints = ctx.num_endpoints();
  TaskGraph graph(pool);
  std::vector<std::vector<TaskGraph::TaskId>> estimate_nodes(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const QueryGroup& group = groups[g];
    const QueryState& lead = *group.members.front();
    TaskOptions opts;
    opts.priority = lead.spec->priority;
    opts.deadline = lead.spec->deadline;
    std::vector<TaskGraph::TaskId> opens(num_endpoints);
    for (size_t e = 0; e < num_endpoints; ++e) {
      std::vector<TaskGraph::TaskId> deps;
      if (g >= 2) deps.push_back(estimate_nodes[g - 2][e]);
      opens[e] = graph.Add(
          TaskKey{lead.id, TaskPhase::kSummary, static_cast<uint32_t>(e), 0},
          [&ctx, &group, e] {
            RunOpenStage(ctx, group, e);
            return Status::OK();
          },
          deps, (*ctx.endpoints)[e].get(), opts);
    }
    TaskGraph::TaskId alloc = graph.Add(
        TaskKey{lead.id, TaskPhase::kAllocate, TaskKey::kCoordinator, 0},
        [&ctx, &group] {
          RunGroupAllocation(ctx, group);
          return Status::OK();
        },
        opens, nullptr, opts);
    estimate_nodes[g].resize(num_endpoints);
    for (size_t e = 0; e < num_endpoints; ++e) {
      estimate_nodes[g][e] = graph.Add(
          TaskKey{lead.id, TaskPhase::kEstimate, static_cast<uint32_t>(e), 0},
          [&ctx, &group, e] {
            RunEstimateStage(ctx, group, e);
            return Status::OK();
          },
          {alloc}, (*ctx.endpoints)[e].get(), opts);
    }
  }
  TaskGraph::TaskId prev_combine = TaskGraph::kNoTask;
  for (QueryState& st : states) {
    if (!st.active) {
      // Refused at admission (or a cache reservation): nothing to
      // schedule, deliver immediately (the barrier path delivers these
      // in its per-query loop).
      if (!st.reserved && st.spec->on_done) {
        st.spec->on_done(st.status, st.response);
      }
      continue;
    }
    const QueryExecSpec& spec = *st.spec;
    TaskOptions opts;
    opts.priority = spec.priority;
    opts.deadline = spec.deadline;
    std::vector<TaskGraph::TaskId> combine_deps;
    if (st.exact) {
      for (size_t e = 0; e < num_endpoints; ++e) {
        combine_deps.push_back(graph.Add(
            TaskKey{st.id, TaskPhase::kEstimate, static_cast<uint32_t>(e), 0},
            [&ctx, &st, e] {
              RunExactScan(ctx, st, e);
              return st.phase2_status[e];
            },
            {}, (*ctx.endpoints)[e].get(), opts));
      }
    } else {
      combine_deps = estimate_nodes[st.group];
      // Chain combines only when the combine itself draws from the
      // aggregator's RNG (SMC mode): the local-DP combine is a pure sum,
      // so a high-priority query's release never waits behind earlier
      // submissions.
      if (!ctx.local_noise && prev_combine != TaskGraph::kNoTask) {
        combine_deps.push_back(prev_combine);
      }
    }
    TaskGraph::TaskId combine = graph.Add(
        TaskKey{st.id, TaskPhase::kCombine, TaskKey::kCoordinator, 0},
        [&ctx, &st] {
          RunCombine(ctx, st);
          return st.status;
        },
        combine_deps, nullptr, opts);
    if (!st.exact && !ctx.local_noise) prev_combine = combine;
    if (spec.on_done) {
      graph.Add(TaskKey{st.id, TaskPhase::kDeliver, TaskKey::kCoordinator, 0},
                [&st, &spec] {
                  spec.on_done(st.status, st.response);
                  return Status::OK();
                },
                {combine}, nullptr, opts);
    }
  }
  graph.Run();
  stats->critical_path_seconds = graph.CriticalPathSeconds();
  stats->num_tasks = graph.num_tasks();
}

}  // namespace

QueryOrchestrator::QueryOrchestrator(
    std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
    const FederationConfig& config)
    : endpoints_(std::move(endpoints)),
      config_(config),
      aggregator_(config.seed) {
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  // Provider-side scans share the orchestration pool (in-process endpoints
  // only; remote backends ignore the hint). pool_'s address survives the
  // orchestrator being moved, so the endpoints' pointers stay valid.
  for (const auto& endpoint : endpoints_) {
    endpoint->ConfigureScanSharding(pool_.get(), config_.num_scan_shards);
  }
}

QueryOrchestrator::~QueryOrchestrator() {
  for (const auto& endpoint : endpoints_) {
    endpoint->ConfigureScanSharding(nullptr, config_.num_scan_shards);
  }
}

Result<QueryOrchestrator> QueryOrchestrator::CreateFromEndpoints(
    std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
    const FederationConfig& config) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("federation: need at least one provider");
  }
  for (const auto& e : endpoints) {
    if (e == nullptr) {
      return Status::InvalidArgument("federation: null endpoint");
    }
  }
  const EndpointInfo& first = endpoints[0]->info();
  for (const auto& e : endpoints) {
    if (!(e->info().schema == first.schema)) {
      return Status::FailedPrecondition(
          "federation: providers must share one public schema");
    }
    if (e->info().cluster_capacity != first.cluster_capacity) {
      return Status::FailedPrecondition(
          "federation: providers must agree on the cluster capacity S "
          "(Sec. 7 of the paper)");
    }
  }
  if (config.sampling_rate <= 0.0 || config.sampling_rate >= 1.0) {
    return Status::InvalidArgument("federation: sampling rate must be in (0,1)");
  }
  FEDAQP_RETURN_IF_ERROR(config.per_query_budget.Validate());
  FEDAQP_RETURN_IF_ERROR(config.split.Validate());
  return QueryOrchestrator(std::move(endpoints), config);
}

std::vector<BatchOutcome> QueryOrchestrator::ExecuteBatchSpecs(
    const std::vector<QueryExecSpec>& specs) {
  const size_t num_endpoints = endpoints_.size();
  const size_t num_queries = specs.size();

  BatchContext ctx;
  ctx.endpoints = &endpoints_;
  ctx.aggregator = &aggregator_;
  ctx.config = &config_;
  ctx.local_noise = config_.mode == ReleaseMode::kLocalDp;

  // Admission (coordinator, in submission order — deterministic). The
  // re-validation is defense-in-depth for direct callers; queries routed
  // through the FederationClient arrive already validated. Session ids
  // come from the submission sequence alone (exact specs draw from their
  // own tagged namespace), so the same admission sequence yields the same
  // noise streams regardless of how it was split into batches.
  std::vector<QueryState> states(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    QueryState& st = states[q];
    st.spec = &specs[q];
    st.exact = specs[q].exact;
    Status valid = specs[q].query.Validate(endpoints_[0]->info().schema);
    if (!valid.ok()) {
      st.Fail(valid);
      continue;
    }
    st.budget = specs[q].budget.epsilon > 0.0 ? specs[q].budget
                                              : config_.per_query_budget;
    st.eps_o = config_.split.hp_allocation * st.budget.epsilon;
    st.eps_s = config_.split.hp_sampling * st.budget.epsilon;
    st.eps_e = config_.split.hp_estimate * st.budget.epsilon;
    st.delta = st.budget.delta;
    if (specs[q].reserve_session_only) {
      // Cache-served query: burn the session id it would have used so
      // every later query's (provider seed, session id)-keyed noise
      // stream matches a cache-less run of the same admission sequence.
      // Nothing is scheduled and nothing is charged to the network.
      st.reserved = true;
      st.id = next_query_id_++;
      continue;
    }
    st.active = true;
    st.network = std::make_unique<SimNetwork>(config_.network);
    st.phase2_status.assign(num_endpoints, Status::OK());
    if (st.exact) {
      st.id = kExactQueryIdTag | next_exact_id_++;
      st.exact_scans.resize(num_endpoints);
      // Scan request broadcast (sessionless; no cover round).
      st.network->UniformRound(num_endpoints,
                               WireSize(ExactScanRequest{specs[q].query}));
      continue;
    }
    st.id = next_query_id_++;
    // Session nonce: ties the providers' per-session noise streams to
    // this orchestrator's seed, so coordinators with different seeds
    // never replay each other's noise (same-id sessions included).
    st.nonce = MixSeeds(config_.seed, st.id);
    st.covers.resize(num_endpoints);
    st.summaries.resize(num_endpoints);
    st.estimates.resize(num_endpoints);
    st.phase1_status.assign(num_endpoints, Status::OK());

    // Steps 1-2: broadcast the framed Open request (it carries the query,
    // the session ids, and eps_O). All network rounds charge the wire
    // codec's exact framed sizes, so the simulator's byte counts equal
    // what the RPC transport moves for the same protocol by construction.
    st.network->UniformRound(
        num_endpoints,
        WireSize(OpenRequest{CoverRequest{st.id, st.nonce, specs[q].query},
                             st.eps_o}));
  }

  // Run the batch under the configured scheduler. Both run the same
  // per-unit bodies; only their scheduling (and therefore wall time)
  // differs — answers, statuses, and per-query SimNetwork charges are
  // bit-identical.
  Stopwatch batch_timer;
  last_batch_stats_ = BatchRunStats{};
  const std::vector<QueryGroup> groups = GroupPrivateQueries(states);
  if (config_.scheduler == BatchScheduler::kPhaseBarrier) {
    RunBatchBarrier(ctx, pool_.get(), states, groups);
    last_batch_stats_.wall_seconds = batch_timer.ElapsedSeconds();
    // No task graph to walk: the measured wall IS the critical path.
    last_batch_stats_.critical_path_seconds = last_batch_stats_.wall_seconds;
  } else {
    RunBatchTaskGraph(ctx, pool_.get(), states, groups, &last_batch_stats_);
    last_batch_stats_.wall_seconds = batch_timer.ElapsedSeconds();
  }

  // Outcome packaging (every session already ended under the scheduler).
  std::vector<BatchOutcome> outcomes(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    QueryState& st = states[q];
    outcomes[q].status = st.status;
    if (st.status.ok()) outcomes[q].response = std::move(st.response);
  }
  return outcomes;
}

}  // namespace fedaqp
