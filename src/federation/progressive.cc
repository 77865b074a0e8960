#include "federation/progressive.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "allocation/allocation_solver.h"
#include "common/stopwatch.h"
#include "dp/laplace.h"
#include "dp/sensitivity.h"
#include "dp/smooth_sensitivity.h"
#include "exec/thread_pool.h"
#include "sampling/em_sampler.h"
#include "sampling/hansen_hurwitz.h"

namespace fedaqp {

namespace {

/// Per-provider progressive state: the up-front EM sample plus scan cache.
struct ProviderState {
  DataProvider* provider = nullptr;
  CoverInfo cover;
  EmSample sample;
  /// Draws consumed so far (prefix of sample.chosen).
  size_t consumed = 0;
  /// Scan cache so clusters shared between rounds are scanned once.
  std::unordered_map<size_t, double> scans;
  /// Running vectors feeding the Hansen-Hurwitz estimator.
  std::vector<double> results;
  std::vector<double> probs;
  /// Smooth-sensitivity accumulator over consumed draws.
  double sens_acc = 0.0;
  size_t clusters_scanned = 0;
  bool exact_path = false;
  double exact_value = 0.0;
};

}  // namespace

Result<std::vector<ProgressiveRound>> ExecuteProgressive(
    const std::vector<DataProvider*>& providers, const RangeQuery& query,
    const ProgressiveOptions& options) {
  if (providers.empty()) {
    return Status::InvalidArgument("progressive: no providers");
  }
  if (options.rounds == 0) {
    return Status::InvalidArgument("progressive: need at least one round");
  }
  FEDAQP_RETURN_IF_ERROR(options.budget.Validate());
  FEDAQP_RETURN_IF_ERROR(options.split.Validate());
  if (options.sampling_rate <= 0.0 || options.sampling_rate >= 1.0) {
    return Status::InvalidArgument("progressive: sampling rate in (0,1)");
  }

  const double eps = options.budget.epsilon;
  const double delta = options.budget.delta;
  const double eps_o = options.split.hp_allocation * eps;
  const double eps_s = options.split.hp_sampling * eps;
  const double eps_e = options.split.hp_estimate * eps;
  const double eps_e_round = eps_e / static_cast<double>(options.rounds);
  const double delta_round = delta / static_cast<double>(options.rounds);

  // Per-provider steps run on a pool; each provider only touches its own
  // state slot and its own RNG stream, and every reduction below walks
  // providers in index order, so all round estimates are bit-identical
  // regardless of the pool size.
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }

  // Steps 1-3: cover, DP summaries, allocation (once).
  std::vector<ProviderState> states(providers.size());
  std::vector<AllocationInput> inputs(providers.size());
  std::vector<Status> provider_status(providers.size(), Status::OK());
  // Pool tasks must not throw: any exception a provider step lets escape
  // (e.g. a sharded scan rethrowing a shard failure) becomes that
  // provider's status, mirroring the orchestrator's phase containment.
  auto contained = [&provider_status](size_t i,
                                      const std::function<void()>& body) {
    try {
      body();
    } catch (const std::exception& ex) {
      provider_status[i] = Status::Internal(
          std::string("progressive provider step threw: ") + ex.what());
    } catch (...) {
      provider_status[i] = Status::Internal("progressive provider step threw");
    }
  };
  ParallelFor(pool.get(), providers.size(), [&](size_t i) {
    contained(i, [&] {
      states[i].provider = providers[i];
      states[i].cover = providers[i]->Cover(query, nullptr);
      Result<ProviderSummary> summary =
          providers[i]->PublishSummary(query, states[i].cover, eps_o);
      if (!summary.ok()) {
        provider_status[i] = summary.status();
        return;
      }
      inputs[i] = AllocationInput{summary->noisy_avg_r, summary->noisy_n_q};
    });
  });
  for (const Status& st : provider_status) FEDAQP_RETURN_IF_ERROR(st);
  FEDAQP_ASSIGN_OR_RETURN(AllocationPlan plan,
                          SolveAllocation(inputs, options.sampling_rate));

  // Step 5 (once): the full EM sample per provider; rounds consume
  // prefixes of it.
  ParallelFor(pool.get(), providers.size(), [&](size_t i) {
    contained(i, [&] {
      ProviderState& st = states[i];
      if (!st.provider->ShouldApproximate(st.cover)) {
        st.exact_path = true;
        Result<ScanResult> scan = st.provider->store().ScanClusters(
            query, st.cover.cluster_ids, &st.provider->default_scan_executor(),
            /*stats=*/nullptr, ProfileFor(query.aggregation()));
        if (!scan.ok()) {
          provider_status[i] = scan.status();
          return;
        }
        st.exact_value = static_cast<double>(scan->For(query.aggregation()));
        st.clusters_scanned = st.cover.NumClusters();
        return;
      }
      size_t s = std::max<size_t>(plan.sample_sizes[i], options.rounds);
      EmSamplerOptions em;
      em.epsilon = eps_s;
      em.n_min = st.provider->options().n_min;
      Result<EmSample> sample = EmSampleClusters(st.cover.proportions, s, em,
                                                 st.provider->rng());
      if (!sample.ok()) {
        provider_status[i] = sample.status();
        return;
      }
      st.sample = std::move(sample).value();
    });
  });
  for (const Status& st : provider_status) FEDAQP_RETURN_IF_ERROR(st);

  FEDAQP_ASSIGN_OR_RETURN(SmoothSensitivity framework,
                          SmoothSensitivity::Create(eps_e_round, delta_round));
  const double delta_r_const = DeltaR(
      providers[0]->options().storage.cluster_capacity,
      query.num_constrained_dims());
  const double unit = providers[0]->UnitChange(query.aggregation());

  std::vector<ProgressiveRound> rounds;
  rounds.reserve(options.rounds);
  PrivacyBudget spent{eps_o + eps_s, 0.0};

  /// One provider's released contribution to one round.
  struct RoundContribution {
    double estimate = 0.0;
    double variance = 0.0;
    size_t clusters = 0;
    bool participated = false;
  };

  for (size_t r = 0; r < options.rounds; ++r) {
    std::vector<RoundContribution> contributions(states.size());
    ParallelFor(pool.get(), states.size(), [&](size_t i) {
      contained(i, [&] {
      ProviderState& st = states[i];
      RoundContribution& out = contributions[i];
      if (st.exact_path) {
        // Exact-path providers release with eps_e_round each round.
        double sens = unit;
        Result<LaplaceMechanism> mech =
            LaplaceMechanism::Create(eps_e_round, sens);
        if (!mech.ok()) {
          provider_status[i] = mech.status();
          return;
        }
        out.estimate = mech->AddNoise(st.exact_value, st.provider->rng());
        out.variance = 2.0 * mech->scale() * mech->scale();
        out.clusters = st.clusters_scanned;
        out.participated = true;
        return;
      }

      // Consume this round's share of the draw sequence.
      size_t target = (r + 1) * st.sample.chosen.size() / options.rounds;
      size_t round_rows = 0;
      Stopwatch round_scan_timer;
      for (; st.consumed < target; ++st.consumed) {
        size_t cover_idx = st.sample.chosen[st.consumed];
        auto it = st.scans.find(cover_idx);
        if (it == st.scans.end()) {
          const uint32_t cluster_id = st.cover.cluster_ids[cover_idx];
          ScanResult scan = st.provider->store().ScanCluster(
              cluster_id, query, ProfileFor(query.aggregation()));
          it = st.scans
                   .emplace(cover_idx, static_cast<double>(
                                           scan.For(query.aggregation())))
                   .first;
          st.clusters_scanned += 1;
          round_rows += st.provider->store().ClusterRows(cluster_id);
        }
        double y = it->second;
        double p = st.sample.pps[cover_idx];
        if (p <= 0.0) {
          y = 0.0;
          p = 1.0;
        }
        st.results.push_back(y);
        st.probs.push_back(p);

        EstimatorClusterState cs;
        cs.cluster_result = y;
        cs.proportion = st.cover.proportions[cover_idx];
        cs.sum_proportions = st.cover.SumR();
        cs.delta_r = delta_r_const;
        cs.sampling_probability = st.sample.pps[cover_idx];
        cs.unit_change = unit;
        st.sens_acc += EstimatorSmoothSensitivity(framework, cs);
      }
      if (round_rows > 0) {
        RecordStoreScan(round_rows, round_scan_timer.ElapsedSeconds());
      }
      if (st.results.empty()) return;

      Result<HansenHurwitzEstimate> hh = HansenHurwitz(st.results, st.probs);
      if (!hh.ok()) {
        provider_status[i] = hh.status();
        return;
      }
      double sens = st.sens_acc / static_cast<double>(st.results.size());
      out.estimate = hh->estimate;
      out.variance = hh->variance;
      if (sens > 0.0) {
        double scale = framework.NoiseScale(sens);
        out.estimate += SampleLaplace(scale, st.provider->rng());
        out.variance += 2.0 * scale * scale;
      }
      out.clusters = st.clusters_scanned;
      out.participated = true;
      });
    });
    for (const Status& st : provider_status) FEDAQP_RETURN_IF_ERROR(st);

    // Provider-order reduction keeps floating-point sums reproducible.
    double estimate_total = 0.0;
    double variance_total = 0.0;
    size_t clusters_total = 0;
    for (const RoundContribution& c : contributions) {
      if (!c.participated) continue;
      estimate_total += c.estimate;
      variance_total += c.variance;
      clusters_total += c.clusters;
    }

    spent.epsilon += eps_e_round;
    spent.delta += delta_round;
    ProgressiveRound out;
    out.round = r + 1;
    out.estimate = estimate_total;
    out.stderr_estimate = std::sqrt(variance_total);
    out.spent = spent;
    out.clusters_scanned = clusters_total;
    rounds.push_back(out);
    // The round is released (its budget share spent); the consumer may
    // now stop refinement — later rounds then never draw their shares.
    if (options.on_round && !options.on_round(rounds.back())) break;
  }
  return rounds;
}

}  // namespace fedaqp
