// Whole-engine soundness fuzz for §4: on random databases with empirically
// derived access schemas (declared N = observed max group size, so the
// database conforms by construction), every controllability derivation the
// engine produces must execute correctly — bounded answers equal the
// reference active-domain semantics and the fetch count stays within the
// static bound. This is the Theorem 4.2 statement as a property test, and
// it must reach derivations rooted in every rule, `or` and `forall`
// included.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "eval/fo_evaluator.h"
#include "workload/formula_gen.h"

namespace scalein {
namespace {

/// Derives an access schema whose statements are true of `db` by
/// construction: for each relation, the full key set and a few random proper
/// subsets, each with the observed maximum bucket size as its N.
AccessSchema EmpiricalAccessSchema(Database* db, const Schema& schema,
                                   Rng* rng) {
  AccessSchema access;
  for (const RelationSchema& rs : schema.relations()) {
    Relation& rel = db->relation(rs.name());
    std::vector<std::vector<size_t>> subsets;
    // All single attributes plus the full attribute set.
    for (size_t p = 0; p < rs.arity(); ++p) subsets.push_back({p});
    std::vector<size_t> all(rs.arity());
    for (size_t p = 0; p < rs.arity(); ++p) all[p] = p;
    subsets.push_back(all);
    for (const std::vector<size_t>& positions : subsets) {
      if (rng->Bernoulli(0.25)) continue;  // leave some relations less covered
      const HashIndex& idx = rel.EnsureIndex(positions);
      uint64_t n = std::max<uint64_t>(1, idx.MaxBucketSize());
      std::vector<std::string> attrs;
      for (size_t p : positions) attrs.push_back(rs.attributes()[p]);
      access.Add(rs.name(), attrs, n);
    }
  }
  return access;
}

/// One seed's rounds; counts the executed derivations by root rule.
void FuzzSeed(uint64_t seed, std::map<std::string, int>* executed_by_rule) {
  Rng rng(seed);
  FormulaGenConfig config;
  config.num_relations = 3;
  config.max_arity = 3;
  config.num_variables = 3;
  config.domain_size = 3;

  int derivations_exercised = 0;
  for (int round = 0; round < 12; ++round) {
    Schema schema = RandomSchema(config, &rng);
    Database db = RandomDatabase(schema, config, 10, &rng);
    AccessSchema access = EmpiricalAccessSchema(&db, schema, &rng);
    // Sanity: the derived schema really conforms.
    Result<ConformanceReport> conf = CheckConformance(db, schema, access);
    ASSERT_TRUE(conf.ok());
    ASSERT_TRUE(conf->conforms);

    FoQuery q = RandomFoQuery(schema, config, 1 + rng.Uniform(5), &rng);
    Result<ControllabilityAnalysis> analysis =
        ControllabilityAnalysis::Analyze(q.body, schema, access);
    if (!analysis.ok()) continue;  // structural mismatch in a random formula

    FoEvaluator reference(&db);
    std::vector<Value> adom = db.ActiveDomain();
    if (adom.empty()) continue;

    for (const VarSet& controls : analysis->MinimalControlSets()) {
      ++derivations_exercised;
      ++(*executed_by_rule)[analysis->BestOptionFor(controls)->rule];
      // Try a few random parameter tuples for this controlling set.
      for (int trial = 0; trial < 3; ++trial) {
        Binding params;
        for (const Variable& v : controls) {
          params.emplace(v, adom[rng.Uniform(adom.size())]);
        }
        BoundedEvaluator bounded(&db);
        BoundedEvalStats stats;
        Result<AnswerSet> fast =
            bounded.Evaluate(q, *analysis, params, &stats);
        ASSERT_TRUE(fast.ok())
            << q.ToString() << "\ncontrols " << VarSetToString(controls)
            << "\n" << fast.status().ToString();
        AnswerSet slow = reference.Evaluate(q, params);
        ASSERT_EQ(*fast, slow)
            << q.ToString() << "\ncontrols " << VarSetToString(controls)
            << "\nderivation:\n" << analysis->Explain(controls)
            << db.ToString();
        Result<double> bound = analysis->StaticFetchBound(controls);
        ASSERT_TRUE(bound.ok());
        EXPECT_LE(static_cast<double>(stats.base_tuples_fetched), *bound)
            << q.ToString();
      }
    }
  }
  // The generator must actually exercise the engine, not skip everything.
  EXPECT_GT(derivations_exercised, 0);
}

TEST(ControllabilityFuzz, DerivationsExecuteCorrectly) {
  std::map<std::string, int> executed_by_rule;
  for (uint64_t seed : {2, 9, 17, 31, 57, 73, 111, 222, 333, 444}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FuzzSeed(seed, &executed_by_rule);
  }
  EXPECT_GT(executed_by_rule["or"], 0);
  EXPECT_GT(executed_by_rule["forall"], 0);
}

}  // namespace
}  // namespace scalein
