#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "core/federation.h"
#include "exec/federation_client.h"
#include "obs/metrics.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "serve/ledger_service.h"
#include "workload/datagen.h"
#include "workload/query_gen.h"

#include "layers.h"
#include "stats.h"

namespace perfbench {

using fedaqp::Aggregation;
using fedaqp::AnalystGrant;
using fedaqp::DimRange;
using fedaqp::Federation;
using fedaqp::FederationClient;
using fedaqp::FederationConfig;
using fedaqp::FederationOptions;
using fedaqp::ProviderEndpoint;
using fedaqp::QueryKind;
using fedaqp::QuerySpec;
using fedaqp::QueryTicket;
using fedaqp::RangeQuery;
using fedaqp::RemoteEndpoint;
using fedaqp::Result;
using fedaqp::RpcProviderServer;
using fedaqp::Status;
using fedaqp::Table;

// ---------------------------------------------------------------- report --

void Report::Set(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = Metric{value, unit, samples};
      return;
    }
  }
  metrics.emplace_back(name, Metric{value, unit, samples});
}

void Report::Info(const std::string& key, const std::string& value) {
  info.emplace_back(key, value);
}

void Report::AddGate(const std::string& name, bool ok,
                     const std::string& detail) {
  gates.push_back(Gate{name, ok, detail});
}

bool Report::AllGatesPass() const {
  for (const Gate& g : gates) {
    if (!g.ok) return false;
  }
  return true;
}

namespace {

constexpr size_t kProviders = 4;
constexpr double kQueryEpsilon = 1.0;
constexpr double kQueryDelta = 1e-3;
/// Open-loop latency limit of the SLO knee search.
constexpr double kSloP99Ms = 100.0;
/// Samples a p99 needs so that at least ten lie beyond it.
constexpr size_t kTailSamples = 1000;
constexpr size_t kBurstQueries = 1024;
constexpr size_t kWarmupQueries = 64;
/// Serving-mix deadline: far above any healthy p99, so eviction is armed
/// but fires only on a genuine stall.
constexpr double kServingDeadlineS = 10.0;
const char* const kAnalysts[] = {"w1", "w2", "w4", "w8"};
const uint32_t kWeights[] = {1, 2, 4, 8};

double NowS() { return static_cast<double>(SpanRecorder::Now()) * 1e-9; }

/// CPU seconds every thread of this process has used so far. The kernel
/// does not charge a task for time its virtual CPU was stolen, so CPU
/// cost per query holds still where wall time follows the host's load.
double CpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

size_t PoolThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(n == 0 ? 1 : n, 4));
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Workload {
  const char* name;
  bool amazon;
  size_t raw_rows;
  size_t dims;
  /// Alternate COUNT and SUM queries (else COUNT only).
  bool mixed_aggs;
  double sampling_rate;
  /// Providers behind RpcProviderServers on 127.0.0.1.
  bool loopback;
  bool smc;
  /// Cache, fair admission, deadline eviction, LedgerService ledger, and
  /// the fresh/repeat/sub-range/exact arrival mix.
  bool serving;
  /// Fixed offered rate of the open loop (0: closed loop).
  double fixed_qps;
  /// First rate the SLO knee search probes (0: no knee search).
  double knee_start_qps;
};

const Workload kWorkloads[] = {
    {"amazon-scan", true, 2000000, 3, true, 0.05, false, false, false, 0.0,
     0.0},
    {"loopback-open", false, 200000, 2, false, 0.1, true, false, false, 800.0,
     3600.0},
    {"serving-mix", false, 200000, 2, false, 0.1, false, true, true, 2000.0,
     0.0},
};

// ------------------------------------------------------------ parallel --

void ParallelEach(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < PoolThreads(); ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

// --------------------------------------------------------------- queries --

struct PoolQuery {
  RangeQuery query;
  /// Bench-side truth: sum over providers of ClusterStore::EvaluateExact,
  /// in provider order — bit-equal to a correct exact federated answer.
  double truth = 0.0;
};

double Truth(Federation* fed, const RangeQuery& q) {
  double total = 0.0;
  for (size_t i = 0; i < fed->num_providers(); ++i) {
    total += static_cast<double>(fed->provider(i)->store().EvaluateExact(q));
  }
  return total;
}

/// `count` distinct queries of the paper's admission rule: every provider
/// approximates (N^Q >= N_min) and the answer is at least 1% of the
/// federation's aggregate. Candidates are drawn sequentially from the
/// seeded generator and judged in parallel, so the pool is a function of
/// the seed alone.
Result<std::vector<PoolQuery>> GeneratePool(Federation* fed, size_t count,
                                            size_t dims, Aggregation agg,
                                            uint64_t seed) {
  fedaqp::QueryGenOptions opts;
  opts.num_dims = dims;
  opts.aggregation = agg;
  opts.seed = seed;
  opts.min_width_fraction = 0.3;
  opts.max_width_fraction = 0.8;
  fedaqp::RandomQueryGenerator gen(fed->schema(), opts);
  double total = 0.0;
  for (size_t i = 0; i < fed->num_providers(); ++i) {
    const auto& store = fed->provider(i)->store();
    total += agg == Aggregation::kCount
                 ? static_cast<double>(store.TotalRows())
                 : static_cast<double>(store.TotalMeasure());
  }
  std::vector<PoolQuery> out;
  std::set<std::string> seen;
  size_t tried = 0;
  while (out.size() < count) {
    if (tried > 64 * count + 4096) {
      return Status::Internal("query pool: admission rule rejected too many");
    }
    std::vector<RangeQuery> cand;
    for (size_t i = 0; i < 256; ++i) {
      Result<RangeQuery> q = gen.Next();
      if (!q.ok()) return q.status();
      cand.push_back(std::move(q).value());
    }
    tried += cand.size();
    std::vector<double> truth(cand.size(), 0.0);
    std::vector<char> keep(cand.size(), 0);
    ParallelEach(cand.size(), [&](size_t i) {
      for (size_t p = 0; p < fed->num_providers(); ++p) {
        auto* provider = fed->provider(p);
        if (!provider->ShouldApproximate(provider->Cover(cand[i], nullptr))) {
          return;
        }
      }
      truth[i] = Truth(fed, cand[i]);
      keep[i] = truth[i] >= 0.01 * total;
    });
    for (size_t i = 0; i < cand.size() && out.size() < count; ++i) {
      if (keep[i] && seen.insert(cand[i].ToString(fed->schema())).second) {
        out.push_back(PoolQuery{cand[i], truth[i]});
      }
    }
  }
  return out;
}

/// A narrower range inside `q`: one constrained dimension shrunk to a
/// random sub-interval of at least half its width.
RangeQuery SubRange(const RangeQuery& q, SplitMix* rng) {
  std::vector<DimRange> ranges = q.ranges();
  DimRange& r = ranges[rng->Below(ranges.size())];
  const size_t width = static_cast<size_t>(r.hi - r.lo) + 1;
  const size_t keep = std::max<size_t>(1, width / 2 + rng->Below(width / 2 + 1));
  const size_t shift = rng->Below(width - std::min(keep, width) + 1);
  r.lo = r.lo + static_cast<fedaqp::Value>(shift);
  r.hi = r.lo + static_cast<fedaqp::Value>(keep) - 1;
  return RangeQuery(q.aggregation(), ranges);
}

// ---------------------------------------------------------------- items --

/// One request the harness submits: the spec plus the truth it is judged
/// against.
struct Item {
  QuerySpec spec;
  double truth = 0.0;
  bool exact() const { return spec.kind == QueryKind::kExact; }
};

Item MakeItem(const PoolQuery& q, const char* analyst, bool exact) {
  Item item;
  item.spec.analyst = analyst;
  item.spec.query = q.query;
  item.spec.kind = exact ? QueryKind::kExact : QueryKind::kApproximate;
  item.truth = q.truth;
  return item;
}

// -------------------------------------------------------------- samples --

/// One delivered request, on the benchmark's clock.
struct Sample {
  bool exact = false;
  bool ok = false;
  bool cached = false;
  double scheduled = 0.0;
  double submitted = 0.0;
  double wall = 0.0;
  double batch_wall = 0.0;
  double estimate = 0.0;
  double truth = 0.0;
  double refunded_eps = 0.0;
  uint64_t seq = 0;
  uint64_t rows_scanned = 0;
  double latency() const {
    return LatencyFromScheduled(scheduled, submitted, wall);
  }
};

Sample Finish(QueryTicket& ticket, const Item& item, double scheduled,
              double submitted, SpanRecorder* rec) {
  Sample s;
  Result<fedaqp::QueryResponse> r = ticket.Wait();
  const fedaqp::TicketStats st = ticket.Stats();
  s.exact = item.exact();
  s.ok = r.ok();
  s.cached = st.served_from_cache;
  s.scheduled = scheduled;
  s.submitted = submitted;
  s.wall = st.wall_seconds;
  s.batch_wall = st.batch_wall_seconds;
  s.truth = item.truth;
  s.refunded_eps = st.refunded.epsilon;
  s.seq = ticket.id();
  if (r.ok()) {
    s.estimate = r->estimate;
    s.rows_scanned = r->breakdown.rows_scanned;
  }
  if (rec != nullptr) {
    const int64_t t0 = static_cast<int64_t>(submitted * 1e9);
    rec->RecordTicket(t0, t0 + static_cast<int64_t>(st.wall_seconds * 1e9));
  }
  return s;
}

struct Phase {
  std::vector<Sample> samples;
  /// Process CPU seconds used while the phase ran.
  double cpu_s = 0.0;
  /// Open loop only: offered and achieved rates, generator lag.
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  std::vector<double> lag_s;
};

/// Closed loop: one request in flight; each item goes when the previous
/// one is delivered.
Phase ClosedLoop(FederationClient* client, const std::vector<Item>& items,
                 SpanRecorder* rec) {
  Phase ph;
  const double cpu0 = CpuS();
  for (const Item& item : items) {
    const double t = NowS();
    QueryTicket ticket = client->Submit(item.spec);
    ph.samples.push_back(Finish(ticket, item, t, t, rec));
  }
  ph.cpu_s = CpuS() - cpu0;
  return ph;
}

void SleepUntil(double at_s) {
  const double now = NowS();
  if (at_s > now) {
    std::this_thread::sleep_for(std::chrono::duration<double>(at_s - now));
  }
}

/// Open loop: items[i] is submitted at start + schedule[i] regardless of
/// completions, from this one thread. Latency counts from the scheduled
/// instant, so generator lag and queueing both show.
Phase OpenLoop(FederationClient* client, const std::vector<Item>& items,
               const std::vector<double>& schedule, SpanRecorder* rec) {
  Phase ph;
  std::vector<QueryTicket> tickets;
  std::vector<double> submitted;
  tickets.reserve(schedule.size());
  submitted.reserve(schedule.size());
  const double cpu0 = CpuS();
  const double start = NowS() + 0.002;
  for (size_t i = 0; i < schedule.size(); ++i) {
    SleepUntil(start + schedule[i]);
    submitted.push_back(NowS());
    tickets.push_back(client->Submit(items[i % items.size()].spec));
  }
  double last_delivery = start;
  size_t ok = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    Sample s = Finish(tickets[i], items[i % items.size()], start + schedule[i],
                      submitted[i], rec);
    last_delivery = std::max(last_delivery, s.submitted + s.wall);
    ok += s.ok ? 1 : 0;
    ph.lag_s.push_back(s.submitted - s.scheduled);
    ph.samples.push_back(std::move(s));
  }
  ph.cpu_s = CpuS() - cpu0;
  const double span = schedule.empty() ? 0.0 : schedule.back();
  ph.offered_qps = span > 0.0 ? static_cast<double>(schedule.size()) / span : 0.0;
  ph.achieved_qps =
      last_delivery > start ? static_cast<double>(ok) / (last_delivery - start)
                            : 0.0;
  return ph;
}

/// Burst: every item in one SubmitAll; throughput is the count over the
/// time until the last delivery.
Phase Burst(FederationClient* client, const std::vector<Item>& items,
            SpanRecorder* rec, double* qps) {
  Phase ph;
  std::vector<QuerySpec> specs;
  for (const Item& it : items) specs.push_back(it.spec);
  const double cpu0 = CpuS();
  const double t0 = NowS();
  std::vector<QueryTicket> tickets = client->SubmitAll(std::move(specs));
  double last = t0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    Sample s = Finish(tickets[i], items[i], t0, t0, rec);
    last = std::max(last, t0 + s.wall);
    ph.samples.push_back(std::move(s));
  }
  ph.cpu_s = CpuS() - cpu0;
  *qps = last > t0 ? static_cast<double>(items.size()) / (last - t0) : 0.0;
  return ph;
}

// ----------------------------------------------------------- deployment --

struct Fleet {
  std::unique_ptr<Federation> fed;
  std::vector<std::unique_ptr<RpcProviderServer>> servers;
  std::unique_ptr<fedaqp::serve::LedgerService> ledger_service;
  uint32_t next_coordinator = 1;
};

struct Client {
  std::vector<std::shared_ptr<RemoteEndpoint>> remotes;
  std::shared_ptr<TracedLedger> traced_ledger;
  /// Declared last: destroyed (drained) before the transports above.
  std::unique_ptr<FederationClient> client;
};

FederationConfig Protocol(const Workload& w, uint64_t seed) {
  FederationConfig cfg;
  cfg.per_query_budget = {kQueryEpsilon, kQueryDelta};
  cfg.sampling_rate = w.sampling_rate;
  cfg.mode = w.smc ? fedaqp::ReleaseMode::kSmc : fedaqp::ReleaseMode::kLocalDp;
  cfg.total_xi = 1e18;
  cfg.total_psi = 1e9;
  cfg.network.latency_seconds = 1e-5;
  cfg.seed = seed ^ 0xbe7c4;
  cfg.num_threads = PoolThreads();
  return cfg;
}

FederationOptions OpenOptions(const Workload& w, const std::vector<Table>& parts,
                              uint64_t seed) {
  size_t cells = 0;
  for (const Table& p : parts) cells += p.num_rows();
  // As the repository's paper benches: clusters of 2% of a provider's cells (at
  // least 512), N_min 16, shuffled layout.
  size_t capacity = static_cast<size_t>(cells / parts.size() * 0.02);
  if (capacity < 512) capacity = 512;
  FederationOptions opts;
  opts.cluster_capacity = capacity;
  opts.n_min = 16;
  opts.layout = fedaqp::ClusterLayout::kShuffled;
  opts.protocol = Protocol(w, seed);
  opts.seed = seed ^ 0xfed;
  return opts;
}

Result<Client> MakeClient(const Workload& w, Fleet* fleet, SpanRecorder* rec,
                          bool in_process, uint64_t seed) {
  Client c;
  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints;
  if (w.loopback && !in_process) {
    for (const auto& server : fleet->servers) {
      Result<std::shared_ptr<RemoteEndpoint>> ep =
          RemoteEndpoint::Connect("127.0.0.1", server->port());
      if (!ep.ok()) return ep.status();
      c.remotes.push_back(*ep);
      endpoints.push_back(*ep);
    }
  } else {
    endpoints = fleet->fed->MakeEndpoints();
  }
  if (rec != nullptr) {
    for (size_t i = 0; i < endpoints.size(); ++i) {
      endpoints[i] = std::make_shared<TracedEndpoint>(
          endpoints[i], rec, static_cast<uint32_t>(i));
    }
  }
  FederationClient::Options opts;
  opts.protocol = Protocol(w, seed);
  if (w.serving) {
    for (size_t a = 0; a < 4; ++a) {
      opts.analysts.push_back(AnalystGrant{kAnalysts[a], 1e12, 1e9, kWeights[a]});
    }
    opts.enable_cache = true;
    opts.fair_admission = true;
    opts.evict_expired = true;
    Result<std::shared_ptr<fedaqp::serve::RemoteLedger>> ledger =
        fedaqp::serve::RemoteLedger::Connect(
            "127.0.0.1", fleet->ledger_service->port(),
            fleet->next_coordinator++);
    if (!ledger.ok()) return ledger.status();
    if (rec != nullptr) {
      c.traced_ledger = std::make_shared<TracedLedger>(*ledger, rec);
      opts.shared_ledger = c.traced_ledger;
    } else {
      opts.shared_ledger = *ledger;
    }
  } else {
    opts.analysts.push_back(AnalystGrant{kAnalysts[0], 1e12, 1e9, 1});
  }
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(std::move(endpoints), opts);
  if (!client.ok()) return client.status();
  c.client = std::move(client).value();
  return c;
}

/// Opens the federation and whatever the workload serves it through.
Result<std::unique_ptr<Fleet>> OpenFleet(const Workload& w,
                                         std::vector<Table> parts,
                                         uint64_t seed) {
  auto fleet = std::make_unique<Fleet>();
  const FederationOptions opts = OpenOptions(w, parts, seed);
  Result<std::unique_ptr<Federation>> fed =
      Federation::Open(std::move(parts), opts);
  if (!fed.ok()) return fed.status();
  fleet->fed = std::move(fed).value();
  if (w.loopback) {
    for (size_t i = 0; i < fleet->fed->num_providers(); ++i) {
      fedaqp::RpcServerOptions so;
      so.port = 0;
      so.num_workers = 1;
      Result<std::unique_ptr<RpcProviderServer>> server =
          RpcProviderServer::Start(fleet->fed->provider(i), so);
      if (!server.ok()) return server.status();
      fleet->servers.push_back(std::move(server).value());
    }
  }
  if (w.serving) {
    Result<std::unique_ptr<fedaqp::serve::LedgerService>> svc =
        fedaqp::serve::LedgerService::Start({});
    if (!svc.ok()) return svc.status();
    fleet->ledger_service = std::move(svc).value();
  }
  return fleet;
}

double ServiceSpent(const Fleet& fleet) {
  double total = 0.0;
  for (const char* a : kAnalysts) {
    Result<fedaqp::PrivacyBudget> s = fleet.ledger_service->ledger().Spent(a);
    if (s.ok()) total += s->epsilon;
  }
  return total;
}

double LocalSpent(const FederationClient& client) {
  Result<fedaqp::PrivacyBudget> s = client.ledger().Spent(kAnalysts[0]);
  return s.ok() ? s->epsilon : 0.0;
}

/// Host CPU ticks so far: {stolen by other guests, all}, from /proc/stat.
std::pair<double, double> HostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  if (!in) return {0.0, 0.0};
  double total = 0.0;
  for (double x : v) total += x;
  return {v[7], total};
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ------------------------------------------------------------ the plan --

/// Requests per measurement round; each round gives every percentile at
/// least kTailSamples samples where the workload has that many.
constexpr size_t kClosedPairs = 500;
constexpr size_t kOpenPerRound = 1000;
constexpr size_t kMixPerRound = 2500;
constexpr size_t kExactLoop = 1000;

/// One measurement round: every timed phase once.
struct RoundPlan {
  std::vector<Item> burst;
  /// Closed loop (amazon-scan): each query exact, then approximate.
  std::vector<Item> closed;
  /// Open loop at the fixed rate, with its schedule.
  std::vector<Item> open;
  std::vector<double> open_schedule;
  /// Closed exact loop (loopback-open).
  std::vector<Item> exact_loop;
};

/// Inputs of one run, all derived from the seed before anything is timed.
struct Plan {
  std::vector<Item> warmup;
  std::vector<RoundPlan> rounds;
  /// Source of knee-probe arrivals, cycled.
  std::vector<Item> knee;
};

/// The serving-mix arrival stream: 50% fresh distinct approximate, 25%
/// verbatim repeats and 15% sub-ranges of the same analyst's earlier
/// queries, 10% exact; analysts drawn uniformly.
std::vector<Item> ServingMix(Federation* fed, const std::vector<PoolQuery>& pool,
                             size_t* next, size_t count, uint64_t seed) {
  SplitMix rng(seed);
  std::vector<std::vector<size_t>> history(4);
  std::vector<Item> items;
  std::vector<size_t> needs_truth;
  for (size_t i = 0; i < count; ++i) {
    const size_t a = rng.Below(4);
    const double u = rng.Unit();
    if (u <= 0.10) {
      items.push_back(MakeItem(pool[(*next)++ % pool.size()], kAnalysts[a], true));
    } else if (u <= 0.35 && !history[a].empty()) {
      items.push_back(items[history[a][rng.Below(history[a].size())]]);
    } else if (u <= 0.50 && !history[a].empty()) {
      Item sub = items[history[a][rng.Below(history[a].size())]];
      sub.spec.query = SubRange(sub.spec.query, &rng);
      needs_truth.push_back(items.size());
      items.push_back(std::move(sub));
    } else {
      history[a].push_back(items.size());
      items.push_back(MakeItem(pool[(*next)++ % pool.size()], kAnalysts[a], false));
    }
  }
  ParallelEach(needs_truth.size(), [&](size_t k) {
    Item& it = items[needs_truth[k]];
    it.truth = Truth(fed, it.spec.query);
  });
  return items;
}

Result<Plan> MakePlan(const Workload& w, Federation* fed, uint64_t seed,
                      size_t rounds) {
  Plan plan;
  plan.rounds.resize(rounds);
  std::vector<PoolQuery> pool;
  if (w.mixed_aggs) {
    const size_t half = (kBurstQueries + kWarmupQueries) / 2;
    Result<std::vector<PoolQuery>> counts =
        GeneratePool(fed, half, w.dims, Aggregation::kCount, seed * 7 + 1);
    if (!counts.ok()) return counts.status();
    Result<std::vector<PoolQuery>> sums =
        GeneratePool(fed, half, w.dims, Aggregation::kSum, seed * 7 + 2);
    if (!sums.ok()) return sums.status();
    for (size_t i = 0; i < half; ++i) {
      pool.push_back((*counts)[i]);
      pool.push_back((*sums)[i]);
    }
  } else {
    // Serving-mix bursts are fresh every round (the cache would answer a
    // repeated burst); about 60% of mix arrivals draw a fresh query.
    const size_t fresh = w.serving ? rounds * (kBurstQueries + kMixPerRound * 6 / 10)
                                   : kBurstQueries + rounds * kOpenPerRound;
    Result<std::vector<PoolQuery>> p = GeneratePool(
        fed, kWarmupQueries + fresh, w.dims, Aggregation::kCount, seed * 7 + 3);
    if (!p.ok()) return p.status();
    pool = std::move(p).value();
  }

  size_t next = 0;
  auto take = [&](size_t n, bool exact) {
    std::vector<Item> out;
    for (size_t i = 0; i < n; ++i) {
      const char* analyst = kAnalysts[w.serving ? i % 4 : 0];
      out.push_back(MakeItem(pool[next++ % pool.size()], analyst, exact));
    }
    return out;
  };
  auto pairs = [&](size_t n) {
    std::vector<Item> out;
    for (const Item& it : take(n, false)) {
      Item ex = it;
      ex.spec.kind = QueryKind::kExact;
      out.push_back(ex);
      out.push_back(it);
    }
    return out;
  };

  if (w.fixed_qps == 0.0) {
    plan.warmup = pairs(kWarmupQueries / 2);
    next = 0;
    const std::vector<Item> burst = take(kBurstQueries, false);
    for (size_t r = 0; r < rounds; ++r) {
      next = r * kClosedPairs;
      plan.rounds[r].closed = pairs(kClosedPairs);
      plan.rounds[r].burst = burst;
    }
    plan.knee = burst;
    return plan;
  }

  plan.warmup = take(kWarmupQueries, false);
  if (w.serving) {
    for (RoundPlan& round : plan.rounds) round.burst = take(kBurstQueries, false);
    const std::vector<Item> mix =
        ServingMix(fed, pool, &next, rounds * kMixPerRound, seed * 11 + 5);
    for (size_t r = 0; r < rounds; ++r) {
      plan.rounds[r].open.assign(mix.begin() + r * kMixPerRound,
                                 mix.begin() + (r + 1) * kMixPerRound);
    }
    plan.knee = mix;
    for (std::vector<Item>* items : {&plan.warmup, &plan.knee}) {
      for (Item& it : *items) it.spec.deadline_seconds = kServingDeadlineS;
    }
    for (RoundPlan& round : plan.rounds) {
      for (std::vector<Item>* items : {&round.burst, &round.open}) {
        for (Item& it : *items) it.spec.deadline_seconds = kServingDeadlineS;
      }
    }
  } else {
    const std::vector<Item> burst = take(kBurstQueries, false);
    for (RoundPlan& round : plan.rounds) {
      round.burst = burst;
      round.open = take(kOpenPerRound, false);
      plan.knee.insert(plan.knee.end(), round.open.begin(), round.open.end());
    }
    next = 0;
    for (RoundPlan& round : plan.rounds) round.exact_loop = take(kExactLoop, true);
  }
  for (size_t r = 0; r < rounds; ++r) {
    plan.rounds[r].open_schedule = PoissonSchedule(
        w.fixed_qps, plan.rounds[r].open.size(), seed * 13 + 7 + r);
  }
  return plan;
}

// ------------------------------------------------------------- results --

struct RoundResult {
  Phase burst, closed, open, exact_loop;
  double burst_qps = 0.0;
  /// Share of host CPU time other guests stole while the round ran.
  double steal = 0.0;
};

/// Everything one pass of the phases produced, for metrics and gates.
struct PassResult {
  Phase warmup;
  std::vector<RoundResult> rounds;
  KneeSearch knee;
  /// Answers whose admission order is fixed by the plan alone, in order.
  std::vector<double> fixed_answers;
  size_t private_answered = 0;
  /// Ledger reconciliation: tickets' charged-minus-refunded epsilon vs
  /// the ledger's own spent delta over the same phases.
  double expected_spent = 0.0;
  double ledger_spent = 0.0;
  fedaqp::BatchRunStats burst_batch;
  size_t burst_batch_queries = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// The rounds that ran while the host was quietest (QuietRounds): the
  /// ones timing metrics are taken from. Counts and answers use all.
  std::vector<const RoundResult*> QuietRoundResults() const {
    std::vector<double> steal;
    for (const RoundResult& rr : rounds) steal.push_back(rr.steal);
    std::vector<const RoundResult*> out;
    for (size_t i : QuietRounds(steal)) out.push_back(&rounds[i]);
    return out;
  }

  /// Every phase that ran, warm-up first, in execution order.
  std::vector<const Phase*> Phases(bool with_warmup) const {
    std::vector<const Phase*> out;
    if (with_warmup) out.push_back(&warmup);
    for (const RoundResult& r : rounds) {
      for (const Phase* ph : {&r.burst, &r.open, &r.exact_loop, &r.closed}) {
        out.push_back(ph);
      }
    }
    return out;
  }
};

void Tally(const Phase& ph, PassResult* r) {
  for (const Sample& s : ph.samples) {
    ++r->attempted;
    if (!s.ok) ++r->failed;
    if (!s.exact && s.ok) ++r->private_answered;
    if (!s.exact && !s.cached && (s.ok || s.refunded_eps > 0.0)) {
      r->expected_spent += kQueryEpsilon - s.refunded_eps;
    }
  }
}

double Spent(const Workload& w, const Fleet& fleet, const FederationClient& c) {
  return w.serving ? ServiceSpent(fleet) : LocalSpent(c);
}

/// Runs the workload's phases on `client`: warm-up, the measurement
/// rounds, then (when `knee`) the SLO knee search over what is left of
/// `seconds`.
PassResult RunPhases(const Workload& w, const Plan& plan, Fleet* fleet,
                     Client* client, SpanRecorder* rec, double seconds,
                     bool knee, uint64_t seed) {
  PassResult r;
  FederationClient* c = client->client.get();
  const double spent_before = Spent(w, *fleet, *c);

  r.warmup = ClosedLoop(c, plan.warmup, rec);
  for (size_t i = 0; i < plan.rounds.size(); ++i) {
    const RoundPlan& rp = plan.rounds[i];
    RoundResult rr;
    const std::pair<double, double> ticks0 = HostTicks();
    rr.burst = Burst(c, rp.burst, rec, &rr.burst_qps);
    // The burst is one admission round; its stats are readable once idle.
    c->WaitIdle();
    const fedaqp::BatchRunStats& batch = c->orchestrator().last_batch_stats();
    if (i == 0) {
      r.burst_batch = batch;
      r.burst_batch_queries = rp.burst.size();
    }
    if (rec != nullptr && !rr.burst.samples.empty()) {
      const int64_t t0 = static_cast<int64_t>(rr.burst.samples[0].submitted * 1e9);
      rec->RecordBatch(t0, t0 + static_cast<int64_t>(batch.wall_seconds * 1e9));
    }
    if (!rp.open.empty()) rr.open = OpenLoop(c, rp.open, rp.open_schedule, rec);
    if (!rp.exact_loop.empty()) {
      rr.exact_loop = ClosedLoop(c, rp.exact_loop, rec);
    }
    if (!rp.closed.empty()) {
      rr.closed = ClosedLoop(c, rp.closed, rec);
    }
    const std::pair<double, double> ticks1 = HostTicks();
    const double total = ticks1.second - ticks0.second;
    rr.steal = total > 0.0 ? (ticks1.first - ticks0.first) / total : 0.0;
    r.rounds.push_back(std::move(rr));
  }
  c->WaitIdle();
  // Fixed admission order: everything under FIFO admission; under fair
  // admission only what ran before the first open loop.
  const std::vector<const Phase*> phases = r.Phases(true);
  for (const Phase* ph : phases) {
    if (w.serving && ph != &r.warmup && ph != &r.rounds[0].burst) continue;
    for (const Sample& s : ph->samples) r.fixed_answers.push_back(s.estimate);
  }
  for (const Phase* ph : phases) Tally(*ph, &r);
  r.ledger_spent = Spent(w, *fleet, *c) - spent_before;

  if (knee && w.knee_start_qps > 0.0) {
    const double budget = std::max(3.0, 0.3 * seconds);
    const size_t max_probes = 8;
    size_t probe_no = 0;
    auto probe = [&](double rate) {
      const size_t n = std::max<size_t>(
          kTailSamples, static_cast<size_t>(rate * budget / max_probes));
      const std::vector<double> at =
          PoissonSchedule(rate, n, seed * 17 + 31 * ++probe_no);
      // The serving mix probes a fresh client each time: the cache would
      // otherwise answer later probes from earlier ones.
      std::unique_ptr<Client> fresh;
      FederationClient* target = c;
      if (w.serving) {
        Result<Client> made = MakeClient(w, fleet, nullptr, false, seed);
        if (made.ok()) {
          fresh = std::make_unique<Client>(std::move(made).value());
          target = fresh->client.get();
        }
      }
      Phase ph = OpenLoop(target, plan.knee, at, nullptr);
      ProbeOutcome o;
      std::vector<double> lat;
      for (const Sample& s : ph.samples) {
        ++r.attempted;
        if (!s.ok) {
          ++r.failed;
          ++o.failed;
        }
        lat.push_back(s.latency() * 1e3);
      }
      o.samples = lat.size();
      o.realized_qps = ph.offered_qps;
      o.p99_ms = Percentile(lat, 0.99);
      // Judge delivery against the rate this Poisson draw really offered,
      // expressed at the nominal rate the search compares it to.
      o.achieved_qps = ph.offered_qps > 0.0 ? ph.achieved_qps * rate / ph.offered_qps
                                            : 0.0;
      return o;
    };
    r.knee = FindKnee(w.knee_start_qps, 0.05, max_probes, probe,
                      [](const ProbeOutcome& o) { return MeetsSlo(o, kSloP99Ms); });
  }
  return r;
}

// --------------------------------------------------------------- gates --

/// Per-round latency samples (ms) of the phases a workload's latency
/// metrics come from. A failed request misses every latency limit.
struct Latencies {
  std::vector<std::vector<double>> approx_ms, exact_ms;
};

Latencies MainLatencies(const Workload& w, const PassResult& r) {
  Latencies l;
  for (const RoundResult* quiet : r.QuietRoundResults()) {
    const RoundResult& rr = *quiet;
    std::vector<double> approx, exact;
    const std::vector<const Phase*> phases =
        w.fixed_qps == 0.0 ? std::vector<const Phase*>{&rr.closed}
                           : std::vector<const Phase*>{&rr.open, &rr.exact_loop};
    for (const Phase* ph : phases) {
      for (const Sample& s : ph->samples) {
        (s.exact ? exact : approx).push_back(s.ok ? s.latency() * 1e3 : 1e12);
      }
    }
    l.approx_ms.push_back(std::move(approx));
    l.exact_ms.push_back(std::move(exact));
  }
  return l;
}

/// The q-percentile of a run: the median over rounds of each round's
/// percentile when every round has enough samples beyond it, else the
/// percentile of all rounds pooled. `n` receives the pooled sample count.
double RoundPercentile(const std::vector<std::vector<double>>& rounds, double q,
                       size_t* n) {
  std::vector<double> pooled, per_round;
  bool each = !rounds.empty();
  for (const std::vector<double>& v : rounds) {
    pooled.insert(pooled.end(), v.begin(), v.end());
    each = each && PercentileSupported(v.size(), q);
    per_round.push_back(Percentile(v, q));
  }
  *n = pooled.size();
  return each ? Percentile(per_round, 0.5) : Percentile(pooled, q);
}

void GateExactAnswers(const PassResult& r, const char* tag, Report* report) {
  size_t checked = 0;
  size_t wrong = 0;
  std::string first;
  for (const Phase* ph : r.Phases(true)) {
    for (const Sample& s : ph->samples) {
      if (!s.exact || !s.ok) continue;
      ++checked;
      if (s.estimate != s.truth && wrong++ == 0) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "seq %llu: %.17g != truth %.17g",
                      static_cast<unsigned long long>(s.seq), s.estimate, s.truth);
        first = buf;
      }
    }
  }
  report->AddGate(std::string("exact_equals_truth") + tag, wrong == 0 && checked > 0,
                  std::to_string(checked) + " checked, " + std::to_string(wrong) +
                      " wrong" + (first.empty() ? "" : "; first " + first));
}

void GateLedger(const PassResult& r, const char* tag, Report* report) {
  const double diff = std::fabs(r.expected_spent - r.ledger_spent);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "ledger spent %.6f eps, tickets charged-minus-refunded %.6f",
                r.ledger_spent, r.expected_spent);
  report->AddGate(std::string("ledger_reconciles") + tag,
                  diff <= 1e-6 * std::max(1.0, r.expected_spent), buf);
}

double RelErrorP50(const PassResult& r, size_t* n) {
  std::vector<double> errs;
  for (const Phase* ph : r.Phases(false)) {
    for (const Sample& s : ph->samples) {
      if (s.exact || !s.ok || s.truth <= 0.0) continue;
      errs.push_back(std::fabs(s.estimate - s.truth) / s.truth);
    }
  }
  *n = errs.size();
  return Percentile(errs, 0.5);
}

/// Fixed-rate open loops across rounds: mean offered and achieved rates,
/// and the generator's lag p99.
struct OpenSummary {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double lag_p99_ms = 0.0;
  size_t samples = 0;
};

OpenSummary SummarizeOpen(const PassResult& r) {
  OpenSummary o;
  std::vector<double> lag;
  size_t loops = 0;
  for (const RoundResult& rr : r.rounds) {
    if (rr.open.samples.empty()) continue;
    ++loops;
    o.offered_qps += rr.open.offered_qps;
    o.achieved_qps += rr.open.achieved_qps;
    o.samples += rr.open.samples.size();
    lag.insert(lag.end(), rr.open.lag_s.begin(), rr.open.lag_s.end());
  }
  if (loops > 0) {
    o.offered_qps /= loops;
    o.achieved_qps /= loops;
  }
  o.lag_p99_ms = Percentile(lag, 0.99) * 1e3;
  return o;
}

// -------------------------------------------------------- per-layer --

void ReportLayers(const Workload& w, const Fleet& fleet, const PassResult& r,
                  const SpanStats& spans, const SpanStats* replay,
                  const std::vector<fedaqp::obs::MetricSample>& reg,
                  uint64_t rpc_bytes, const Client& client, Report* report) {
  auto counter = [&](const std::string& name) {
    for (const auto& m : reg) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  auto hist_p50_us = [&](const std::string& name, size_t* n) {
    for (const auto& m : reg) {
      if (m.name == name) {
        *n = static_cast<size_t>(m.value);
        return m.p50 * 1e6;
      }
    }
    *n = 0;
    return 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  size_t approx_executed = 0;
  size_t exact_executed = 0;
  size_t private_submitted = 0;
  uint64_t rows_approx = 0;
  uint64_t rows_exact = 0;
  std::vector<double> queue_wait_ms;
  for (const Phase* ph : r.Phases(true)) {
    for (const Sample& s : ph->samples) {
      if (!s.exact) ++private_submitted;
      if (!s.ok || s.cached) continue;
      (s.exact ? exact_executed : approx_executed) += 1;
      (s.exact ? rows_exact : rows_approx) += s.rows_scanned;
      queue_wait_ms.push_back(std::max(0.0, s.wall - s.batch_wall) * 1e3);
    }
  }
  const size_t k_scan = static_cast<size_t>(SpanKind::kExactScan);
  const size_t k_approx = static_cast<size_t>(SpanKind::kApproximate);
  const size_t k_exans = static_cast<size_t>(SpanKind::kExactAnswer);
  const double scan_span_s =
      spans.seconds[k_scan] + spans.seconds[k_approx] + spans.seconds[k_exans];
  const bool remote = w.loopback;

  report->Set("storage.exact_scan_us", spans.MeanUs(SpanKind::kExactScan), "us",
              spans.count[k_scan]);
  report->Set("storage.rows_per_s", ratio(counter("storage.rows_scanned"), scan_span_s),
              "rows/s");
  report->Set("storage.rows_per_approx_query",
              ratio(static_cast<double>(rows_approx), approx_executed), "rows",
              approx_executed);
  report->Set("storage.rows_per_exact_query",
              ratio(static_cast<double>(rows_exact), exact_executed), "rows",
              exact_executed);
  report->Set("metadata.cover_us", spans.MeanUs(SpanKind::kCover), "us",
              spans.count[static_cast<size_t>(SpanKind::kCover)]);
  report->Set("metadata.bytes", static_cast<double>(fleet.fed->MetadataBytes()), "bytes");
  report->Set("federation.summary_us", spans.MeanUs(SpanKind::kSummary), "us",
              spans.count[static_cast<size_t>(SpanKind::kSummary)]);
  report->Set("federation.approximate_us", spans.MeanUs(SpanKind::kApproximate), "us",
              spans.count[k_approx]);
  report->Set("federation.end_query_us", spans.MeanUs(SpanKind::kEndQuery), "us",
              spans.count[static_cast<size_t>(SpanKind::kEndQuery)]);
  uint64_t session_calls = 0;
  for (size_t k = 0; k < kNumSpanKinds; ++k) {
    if (IsSessionCall(static_cast<SpanKind>(k))) session_calls += spans.count[k];
  }
  report->Set("federation.calls_per_query",
              ratio(static_cast<double>(session_calls), approx_executed), "calls",
              approx_executed);
  const fedaqp::BatchRunStats& b = r.burst_batch;
  report->Set("federation.batch_wall_ms", b.wall_seconds * 1e3, "ms");
  report->Set("federation.critical_path_ms", b.critical_path_seconds * 1e3, "ms");
  report->Set("federation.wall_over_critical",
              ratio(b.wall_seconds, b.critical_path_seconds), "ratio");
  report->Set("federation.tasks_per_query",
              ratio(static_cast<double>(b.num_tasks), r.burst_batch_queries), "tasks");
  report->Set("exec.queue_wait_ms_p50", Percentile(queue_wait_ms, 0.5), "ms",
              queue_wait_ms.size());
  report->Set("exec.queue_wait_ms_p99", Percentile(queue_wait_ms, 0.99), "ms",
              queue_wait_ms.size());
  report->Set("exec.queries_per_round",
              ratio(counter("client.delivered"), counter("client.admission_rounds")),
              "queries");
  for (const char* phase : {"summary", "estimate", "scan", "allocate", "combine", "deliver"}) {
    size_t n = 0;
    const double us = hist_p50_us(std::string("task.seconds.") + phase, &n);
    report->Set(std::string("exec.task_") + phase + "_us_p50", us, "us", n);
  }

  // RPC: remote call spans, minus the in-process replay of the same calls.
  struct RpcMethod {
    const char* name;
    SpanKind kind;
  };
  const RpcMethod methods[] = {{"cover", SpanKind::kCover},
                               {"summary", SpanKind::kSummary},
                               {"approximate", SpanKind::kApproximate},
                               {"end_query", SpanKind::kEndQuery},
                               {"exact_scan", SpanKind::kExactScan}};
  double overhead_sum = 0.0;
  uint64_t overhead_calls = 0;
  for (const RpcMethod& m : methods) {
    const size_t k = static_cast<size_t>(m.kind);
    report->Set(std::string("rpc.") + m.name + "_us",
                remote ? spans.MeanUs(m.kind) : 0.0, "us", remote ? spans.count[k] : 0);
    if (remote && replay != nullptr && replay->count[k] > 0) {
      overhead_sum += (spans.MeanUs(m.kind) - replay->MeanUs(m.kind)) * spans.count[k];
      overhead_calls += spans.count[k];
    }
  }
  report->Set("rpc.overhead_us_per_call", ratio(overhead_sum, overhead_calls), "us",
              overhead_calls);
  report->Set("rpc.bytes_per_query",
              ratio(static_cast<double>(rpc_bytes), approx_executed + exact_executed),
              "bytes");
  report->Set("rpc.coalesced_per_batch",
              ratio(counter("rpc.coalesced_calls"), counter("rpc.doorbell_batches")),
              "calls");
  const double lookups = counter("cache.lookups");
  report->Set("cache.hit_ratio",
              ratio(counter("cache.exact_hits") + counter("cache.full_compositions"),
                    lookups),
              "ratio", static_cast<size_t>(lookups));
  report->Set("cache.partial_ratio", ratio(counter("cache.partial_compositions"), lookups),
              "ratio", static_cast<size_t>(lookups));
  std::vector<double> ledger_us;
  for (double s : spans.ledger_op_seconds) ledger_us.push_back(s * 1e6);
  report->Set("serve.ledger_op_us_p50", Percentile(ledger_us, 0.5), "us",
              ledger_us.size());
  report->Set("serve.ledger_op_us_p99", Percentile(ledger_us, 0.99), "us",
              ledger_us.size());
  report->Set("serve.ledger_ops_per_query",
              ratio(static_cast<double>(client.traced_ledger ? client.traced_ledger->num_calls() : 0),
                    private_submitted),
              "ops", private_submitted);
  size_t n_combine = 0;
  const double combine_us = hist_p50_us("task.seconds.combine", &n_combine);
  report->Set("smc.combine_us_p50", w.smc ? combine_us : 0.0, "us",
              w.smc ? n_combine : 0);
  const OpenSummary open = SummarizeOpen(r);
  report->Set("serve.gen_lag_p99_ms", open.lag_p99_ms, "ms", open.samples);
  report->Set("serve.achieved_over_offered", ratio(open.achieved_qps, open.offered_qps),
              "ratio", open.samples);
}

uint64_t RpcBytes(const Client& c) {
  uint64_t b = 0;
  for (const auto& ep : c.remotes) b += ep->bytes_sent() + ep->bytes_received();
  return b;
}

/// Per-seq ledger check of a traced pass: every ticket's (charge - refund)
/// as the ledger decorator saw it matches what the ticket reports.
void GateLedgerPerTicket(const PassResult& r, const TracedLedger& ledger,
                         Report* report) {
  std::map<uint64_t, double> net;
  for (const LedgerOpRecord& op : ledger.ops()) {
    if (!op.ok) continue;
    if (op.op == LedgerOpRecord::Op::kCharge) net[op.seq] += op.epsilon;
    if (op.op == LedgerOpRecord::Op::kRefund) net[op.seq] -= op.epsilon;
  }
  size_t mismatched = 0;
  size_t checked = 0;
  for (const Phase* ph : r.Phases(true)) {
    for (const Sample& s : ph->samples) {
      if (s.exact) continue;
      ++checked;
      const double ticket = s.cached || !(s.ok || s.refunded_eps > 0.0)
                                ? 0.0
                                : kQueryEpsilon - s.refunded_eps;
      const auto it = net.find(s.seq);
      const double seen = it == net.end() ? 0.0 : it->second;
      if (std::fabs(seen - ticket) > 1e-9) ++mismatched;
    }
  }
  report->AddGate("ledger_per_ticket", mismatched == 0,
                  std::to_string(checked) + " tickets, " + std::to_string(mismatched) +
                      " mismatched");
}

// ----------------------------------------------------------------- run --

void ReportEndToEnd(const Workload& w, const PassResult& r,
                    const std::vector<double>& setup_s, Report* report) {
  const Latencies l = MainLatencies(w, r);
  size_t n = 0;
  report->Set("setup_s", Percentile(setup_s, 0.5), "s", setup_s.size());
  const double approx_p50 = RoundPercentile(l.approx_ms, 0.5, &n);
  report->Set("approx_p50_ms", approx_p50, "ms", n);
  report->Set("approx_p99_ms", RoundPercentile(l.approx_ms, 0.99, &n), "ms", n);
  const double exact_p50 = RoundPercentile(l.exact_ms, 0.5, &n);
  report->Set("exact_p50_ms", exact_p50, "ms", n);
  report->Set("exact_p99_ms", RoundPercentile(l.exact_ms, 0.99, &n), "ms", n);
  const std::vector<const RoundResult*> quiet = r.QuietRoundResults();
  std::vector<double> bursts;
  size_t burst_n = 0;
  for (const RoundResult* rr : quiet) {
    bursts.push_back(rr->burst_qps);
    burst_n += rr->burst.samples.size();
  }
  report->Set("burst_qps", Percentile(bursts, 0.5), "q/s", burst_n);
  // CPU the whole process (client, providers, servers, ledger service)
  // spends per request of a round.
  std::vector<double> cpu_us;
  size_t cpu_n = 0;
  for (const RoundResult* rr : quiet) {
    double cpu = 0.0;
    size_t requests = 0;
    for (const Phase* ph : {&rr->burst, &rr->open, &rr->exact_loop, &rr->closed}) {
      cpu += ph->cpu_s;
      requests += ph->samples.size();
    }
    cpu_n += requests;
    cpu_us.push_back(requests > 0 ? cpu / requests * 1e6 : 0.0);
  }
  report->Set("cpu_us_per_query", Percentile(cpu_us, 0.5), "us", cpu_n);
  // CPU per approximate query of the bursts: every round the same batch
  // shape, so open-loop batching and memory-bound exact scans, which move
  // with the host's load, stay out of it.
  std::vector<double> approx_cpu_us;
  for (const RoundResult* rr : quiet) {
    approx_cpu_us.push_back(rr->burst.cpu_s / rr->burst.samples.size() * 1e6);
  }
  report->Set("approx_cpu_us", Percentile(approx_cpu_us, 0.5), "us", burst_n);
  report->Set("slo_qps", r.knee.knee_realized_qps, "q/s", r.knee.probes.size());
  const double rel = RelErrorP50(r, &n);
  report->Set("rel_error_p50", rel, "ratio", n);
  report->Set("eps_per_answer",
              r.private_answered > 0 ? r.ledger_spent / r.private_answered : 0.0, "eps",
              r.private_answered);
  report->Set("error_rate",
              r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0.0,
              "fraction", r.attempted);
  report->Set("rss_mb", PeakRssMb(), "MB");
  report->Set("exact_over_approx_p50", approx_p50 > 0 ? exact_p50 / approx_p50 : 0.0,
              "ratio");
  auto per_round = [&](const std::vector<std::vector<double>>& rounds, double q) {
    std::string out;
    for (const std::vector<double>& v : rounds) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", Percentile(v, q));
      out += buf;
    }
    return out;
  };
  report->Info("rounds.approx_p50_ms", per_round(l.approx_ms, 0.5));
  report->Info("rounds.approx_p99_ms", per_round(l.approx_ms, 0.99));
  report->Info("rounds.exact_p50_ms", per_round(l.exact_ms, 0.5));
  std::vector<std::vector<double>> burst_rounds, cpu_rounds;
  for (double b : bursts) burst_rounds.push_back({b});
  for (const double c : cpu_us) cpu_rounds.push_back({c});
  report->Info("rounds.burst_qps", per_round(burst_rounds, 0.5));
  report->Info("rounds.cpu_us_per_query", per_round(cpu_rounds, 0.5));
  std::vector<std::vector<double>> approx_cpu_rounds;
  for (const double c : approx_cpu_us) approx_cpu_rounds.push_back({c});
  report->Info("rounds.approx_cpu_us", per_round(approx_cpu_rounds, 0.5));
  // The lists above cover the quiet rounds only; these two cover all.
  std::vector<std::vector<double>> steal_rounds;
  std::vector<double> steal;
  for (const RoundResult& rr : r.rounds) {
    steal_rounds.push_back({rr.steal * 100.0});
    steal.push_back(rr.steal);
  }
  report->Info("rounds.steal_pct", per_round(steal_rounds, 0.5));
  std::string quiet_ids;
  for (size_t i : QuietRounds(steal)) {
    quiet_ids += (quiet_ids.empty() ? "" : " ") + std::to_string(i);
  }
  report->Info("rounds.quiet", quiet_ids);
  const OpenSummary open = SummarizeOpen(r);
  if (open.samples > 0) {
    report->Set("open.offered_qps", open.offered_qps, "q/s", open.samples);
    report->Set("open.achieved_qps", open.achieved_qps, "q/s", open.samples);
    report->Set("open.gen_lag_p99_ms", open.lag_p99_ms, "ms", open.samples);
  }
  std::string probes;
  for (const ProbeOutcome& o : r.knee.probes) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%.0f:%s(p99=%.1fms,ach=%.0f)",
                  probes.empty() ? "" : " ", o.offered_qps,
                  MeetsSlo(o, kSloP99Ms) ? "ok" : "fail", o.p99_ms, o.achieved_qps);
    probes += buf;
  }
  report->Info("knee_probes", probes);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.push_back(w.name);
  return names;
}

bool RunWorkload(const RunOptions& options, Report* report) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return false;
  }
  const Workload& w = *found;
  const uint64_t seed = options.seed;

  // Inputs: generated bench-side, outside every timed region.
  const double t_gen = NowS();
  fedaqp::SyntheticConfig cfg = w.amazon ? fedaqp::AmazonConfig(w.raw_rows, seed)
                                         : fedaqp::AdultConfig(w.raw_rows, seed);
  Result<std::vector<Table>> parts = fedaqp::GenerateFederatedTensors(
      cfg, w.amazon ? fedaqp::AmazonTensorDims() : fedaqp::AdultTensorDims(),
      kProviders);
  if (!parts.ok()) {
    std::fprintf(stderr, "datagen: %s\n", parts.status().ToString().c_str());
    return false;
  }
  size_t cells = 0;
  for (const Table& t : *parts) cells += t.num_rows();
  report->Set("input.cells", static_cast<double>(cells), "cells");
  report->Set("input.datagen_s", NowS() - t_gen, "s");

  // Set-up: the whole deployment, several times; the median is reported.
  const size_t setups = options.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  Client main;
  for (size_t i = 0; i < setups; ++i) {
    main = Client();
    fleet.reset();
    std::vector<Table> copy = *parts;
    const double t0 = NowS();
    Result<std::unique_ptr<Fleet>> f = OpenFleet(w, std::move(copy), seed);
    if (!f.ok()) {
      std::fprintf(stderr, "open: %s\n", f.status().ToString().c_str());
      return false;
    }
    fleet = std::move(f).value();
    Result<Client> c = MakeClient(w, fleet.get(), nullptr, false, seed);
    if (!c.ok()) {
      std::fprintf(stderr, "client: %s\n", c.status().ToString().c_str());
      return false;
    }
    setup_s.push_back(NowS() - t0);
    main = std::move(c).value();
  }
  parts = Result<std::vector<Table>>(Status::Internal("released"));

  const double t_plan = NowS();
  // One round per ~2.2 s of run time (nine at 20 s) gives a median robust
  // to four disturbed rounds; a traced run only needs enough rounds to
  // attribute time to layers.
  const size_t rounds =
      options.trace ? 2 : std::max<size_t>(3, static_cast<size_t>(options.seconds / 2.2));
  Result<Plan> plan = MakePlan(w, fleet->fed.get(), seed, rounds);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    return false;
  }
  report->Set("input.querygen_s", NowS() - t_plan, "s");

  PassResult base = RunPhases(w, *plan, fleet.get(), &main, nullptr,
                              options.seconds, !options.trace, seed);
  report->attempted += base.attempted;
  report->failed += base.failed;
  GateExactAnswers(base, "", report);
  GateLedger(base, "", report);
  report->Info("checksum.fixed_order", Hex(AnswersChecksum(base.fixed_answers)));
  report->Info("checksum.fixed_order_answers", std::to_string(base.fixed_answers.size()));

  if (!options.trace) {
    ReportEndToEnd(w, base, setup_s, report);
    return true;
  }

  // Traced pass: a fresh client through the decorators, same phases.
  main = Client();
  SpanRecorder rec;
  Result<Client> traced = MakeClient(w, fleet.get(), &rec, false, seed);
  if (!traced.ok()) {
    std::fprintf(stderr, "traced client: %s\n", traced.status().ToString().c_str());
    return false;
  }
  fedaqp::obs::MetricRegistry::Global().ResetAll();
  const uint64_t bytes_before = RpcBytes(*traced);
  PassResult tr = RunPhases(w, *plan, fleet.get(), &*traced, &rec, options.seconds,
                            false, seed);
  const uint64_t rpc_bytes = RpcBytes(*traced) - bytes_before;
  const std::vector<fedaqp::obs::MetricSample> reg =
      fedaqp::obs::MetricRegistry::Global().Snapshot();
  report->attempted += tr.attempted;
  report->failed += tr.failed;
  GateExactAnswers(tr, "_traced", report);
  GateLedger(tr, "_traced", report);
  if (w.serving) GateLedgerPerTicket(tr, *traced->traced_ledger, report);
  const uint64_t base_sum = AnswersChecksum(base.fixed_answers);
  const uint64_t traced_sum = AnswersChecksum(tr.fixed_answers);
  report->AddGate("traced_answers_identical",
                  base_sum == traced_sum && base.fixed_answers.size() == tr.fixed_answers.size(),
                  Hex(base_sum) + " vs " + Hex(traced_sum) + " over " +
                      std::to_string(tr.fixed_answers.size()) + " answers");
  std::vector<Span> spans = rec.Collect();
  const SpanStats stats = Summarize(spans);

  // Loopback: replay the same phases in process to isolate transport cost.
  SpanStats replay_stats;
  const SpanStats* replay = nullptr;
  if (w.loopback) {
    SpanRecorder replay_rec;
    Result<Client> local = MakeClient(w, fleet.get(), &replay_rec, true, seed);
    if (!local.ok()) {
      std::fprintf(stderr, "replay client: %s\n", local.status().ToString().c_str());
      return false;
    }
    PassResult rr = RunPhases(w, *plan, fleet.get(), &*local, &replay_rec,
                              options.seconds, false, seed);
    report->attempted += rr.attempted;
    report->failed += rr.failed;
    const uint64_t local_sum = AnswersChecksum(rr.fixed_answers);
    report->AddGate("loopback_equals_in_process", local_sum == traced_sum,
                    Hex(local_sum) + " vs " + Hex(traced_sum));
    replay_stats = Summarize(replay_rec.Collect());
    replay = &replay_stats;
  }

  ReportLayers(w, *fleet, tr, stats, replay, reg, rpc_bytes, *traced, report);
  size_t n_base = 0;
  size_t n_traced = 0;
  const double p50_base = RoundPercentile(MainLatencies(w, base).approx_ms, 0.5, &n_base);
  const double p50_traced = RoundPercentile(MainLatencies(w, tr).approx_ms, 0.5, &n_traced);
  report->Set("trace_overhead_pct",
              p50_base > 0 ? (p50_traced / p50_base - 1.0) * 100.0 : 0.0, "%", n_traced);
  if (!options.trace_path.empty()) {
    const bool written = WriteChromeTrace(options.trace_path, spans, 400000);
    report->AddGate("trace_written", written, options.trace_path);
  }
  return true;
}

}  // namespace perfbench
