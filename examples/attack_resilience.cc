// Attack-resilience demo (Sec. 6.6): mounts the Naive-Bayes learning attack
// against the federation under several budget-composition strategies and
// shows that prediction accuracy stays at the random-guess floor.
//
//   ./attack_resilience

#include <cstdio>

#include "core/fedaqp.h"

using namespace fedaqp;  // NOLINT: example brevity

int main() {
  // A table whose QI column is strongly correlated with the sensitive
  // column: the worst case for privacy, best case for the attacker.
  SyntheticConfig cfg;
  cfg.rows = 6000;
  cfg.seed = 31337;
  cfg.correlate_first_two = true;
  cfg.dims = {{"diagnosis", 20, DistributionKind::kUniform, 0.0},   // SA
              {"medication", 20, DistributionKind::kUniform, 0.0},  // QI
              {"age_band", 8, DistributionKind::kUniform, 0.0}};
  Result<Table> raw = GenerateSynthetic(cfg);
  if (!raw.ok()) return 1;
  Result<Table> tensor = raw->BuildCountTensor({0, 1, 2});
  if (!tensor.ok()) return 1;
  Result<std::vector<Table>> parts = tensor->PartitionHorizontally(4);
  if (!parts.ok()) return 1;

  std::vector<std::unique_ptr<DataProvider>> providers;
  for (size_t i = 0; i < parts->size(); ++i) {
    DataProvider::Options popts;
    popts.storage.cluster_capacity = 64;
    popts.n_min = 3;
    popts.seed = 11 + i;
    Result<std::unique_ptr<DataProvider>> p =
        DataProvider::Create((*parts)[i], popts);
    if (!p.ok()) return 1;
    providers.push_back(std::move(p).value());
  }
  std::vector<DataProvider*> ptrs;
  for (auto& p : providers) ptrs.push_back(p.get());

  std::vector<EvalRow> eval = BuildEvalRows(*raw, 0, {1}, 2000);
  std::printf("attack target: |SA|=20 classes -> random guess = 5.0%%\n");
  std::printf("(QI is deterministically correlated with SA: a noiseless\n"
              " attacker would score near 100%%)\n\n");
  std::printf("%-12s %-6s %8s %14s %12s\n", "composition", "agg", "xi",
              "eps/query", "accuracy");

  FederationClient::Options base;
  base.protocol.sampling_rate = 0.3;

  for (AttackComposition comp :
       {AttackComposition::kSequential, AttackComposition::kAdvanced,
        AttackComposition::kCoalition}) {
    const char* comp_name =
        comp == AttackComposition::kSequential  ? "sequential"
        : comp == AttackComposition::kAdvanced ? "advanced"
                                               : "coalition";
    for (double xi : {1.0, 20.0}) {
      AttackConfig attack;
      attack.sa_dim = 0;
      attack.qi_dims = {1};
      attack.xi = xi;
      attack.psi = 1e-6;
      attack.composition = comp;
      attack.aggregation = Aggregation::kCount;
      // A fresh client per attack: the attacker's grant is its own.
      Result<std::unique_ptr<FederationClient>> client =
          FederationClient::Create(ptrs, base);
      if (!client.ok()) return 1;
      Result<AttackResult> res =
          RunNbcAttack(client->get(), "attacker", attack, eval);
      if (!res.ok()) {
        std::printf("%-12s %-6s %8.0f  attack failed: %s\n", comp_name,
                    "COUNT", xi, res.status().ToString().c_str());
        continue;
      }
      std::printf("%-12s %-6s %8.0f %14.6f %11.2f%%\n", comp_name, "COUNT",
                  xi, res->per_query_budget.epsilon, 100.0 * res->accuracy);
    }
  }
  std::printf("\nall accuracies sit near the 5%% random-guess floor: the\n"
              "interactive budget-limited interface defeats the classifier\n"
              "even with advanced composition or a colluding coalition.\n");
  return 0;
}
