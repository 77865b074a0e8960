#ifndef FEDAQP_DP_COMPOSITION_H_
#define FEDAQP_DP_COMPOSITION_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "dp/budget.h"

namespace fedaqp {

/// DP composition calculus (Theorems 3.1/3.2 and the advanced composition
/// used in Sec. 6.6). These are pure budget computations; the runtime
/// enforcement lives in AnalystLedger.

/// Sequential composition: component-wise sums.
PrivacyBudget SequentialComposition(const std::vector<PrivacyBudget>& parts);

/// Parallel composition (mechanisms on disjoint data): component-wise max.
PrivacyBudget ParallelComposition(const std::vector<PrivacyBudget>& parts);

/// Advanced composition (Dwork-Roth Thm 3.20): running k mechanisms that
/// are each (eps, delta)-DP yields
///   ( sqrt(2 k ln(1/delta')) * eps + k * eps * (e^eps - 1),
///     k * delta + delta' )-DP.
Result<PrivacyBudget> AdvancedComposition(double per_query_epsilon,
                                          double per_query_delta,
                                          size_t num_queries,
                                          double delta_slack);

/// The paper's per-query budget under plain sequential composition for a
/// total (xi, psi) split across n queries: eps = xi/n, delta = psi/n.
Result<PrivacyBudget> PerQuerySequential(double xi, double psi,
                                         size_t num_queries);

/// The paper's per-query budget under advanced composition (Sec. 6.6):
///   eps = xi / (2 * sqrt(2 * n * log(1/delta))),  delta = psi / n.
Result<PrivacyBudget> PerQueryAdvanced(double xi, double psi,
                                       size_t num_queries);

}  // namespace fedaqp

#endif  // FEDAQP_DP_COMPOSITION_H_
