// Degradation contract of the resource governor across the engines: partial
// results carry the trip record, strict paths fail with typed statuses, and
// the shell renders both. The chaos schedules live in chaos_test.cc; these
// are the deterministic single-fault counterparts.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/bounded_eval.h"
#include "core/qdsi.h"
#include "core/witness.h"
#include "eval/cq_evaluator.h"
#include "exec/exec_context.h"
#include "exec/operators.h"
#include "exec/planner.h"
#include "incremental/maintainer.h"
#include "io/shell.h"
#include "obs/explain.h"
#include "query/parser.h"
#include "workload/social_gen.h"
#include "workload/update_gen.h"

namespace scalein {
namespace {

Variable V(const char* name) { return Variable::Named(name); }

struct Social {
  SocialConfig config;
  Schema schema = SocialSchema(false);
  Database db{Schema{}};
  AccessSchema access;

  explicit Social(uint64_t persons = 80) {
    config.num_persons = persons;
    config.max_friends_per_person = 8;
    config.num_restaurants = 30;
    config.avg_visits_per_person = 4;
    config.seed = 23;
    db = GenerateSocial(config);
    access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());
  }
};

FoQuery Q1(const Schema& s) {
  Result<FoQuery> q = ParseFoQuery(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      &s);
  SI_CHECK_MSG(q.ok(), q.status().message().c_str());
  return *std::move(q);
}

/// Pre-trips a governor through its cancellation token: Checkpoint consults
/// the flag only every kCheckInterval probes, so tests spin it into the
/// tripped state before handing it to an engine.
void CancelAndTrip(exec::ResourceGovernor* governor,
                   exec::CancellationToken token) {
  token.Cancel();
  for (uint32_t i = 0; i <= exec::ResourceGovernor::kCheckInterval; ++i) {
    if (!governor->Checkpoint()) break;
  }
  SI_CHECK(governor->tripped());
}

exec::ResourceGovernor CancelledGovernor() {
  exec::CancellationToken token;
  exec::GovernorLimits limits;
  limits.has_cancel = true;
  limits.cancel = token;
  exec::ResourceGovernor governor;
  governor.Arm(limits);
  CancelAndTrip(&governor, token);
  return governor;
}

TEST(DegradedBoundedEvalTest, TinyFetchBudgetYieldsPartialWithTrip) {
  Social social;
  FoQuery q1 = Q1(social.schema);
  Result<ControllabilityAnalysis> analysis =
      ControllabilityAnalysis::Analyze(q1.body, social.schema, social.access);
  ASSERT_TRUE(analysis.ok());
  // Pick a parameter whose evaluation actually needs more than one fetch (a
  // friendless p would complete within any budget).
  const HashIndex& friend_idx = social.db.relation("friend").EnsureIndex({0});
  int64_t p = -1;
  for (int64_t candidate = 0; candidate < 40; ++candidate) {
    Tuple key{Value::Int(candidate)};
    const std::vector<uint32_t>* bucket = friend_idx.Lookup(key);
    if (bucket != nullptr && bucket->size() >= 2) {
      p = candidate;
      break;
    }
  }
  ASSERT_GE(p, 0);
  Binding params{{V("p"), Value::Int(p)}};

  BoundedEvaluator full_eval(&social.db);
  Result<AnswerSet> full = full_eval.Evaluate(q1, *analysis, params);
  ASSERT_TRUE(full.ok());

  BoundedEvaluator tiny(&social.db);
  exec::GovernorLimits limits;
  limits.fetch_budget = 1;
  tiny.set_limits(limits);
  Result<exec::Degraded<AnswerSet>> degraded =
      tiny.EvaluateDegraded(q1, *analysis, params);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_FALSE(degraded->complete);
  EXPECT_EQ(degraded->trip.kind, exec::LimitKind::kFetchBudget);
  EXPECT_FALSE(degraded->ops.empty());  // tripping node is identifiable
  // Partial answers are a genuine subset of the full answer set.
  EXPECT_TRUE(std::includes(full->begin(), full->end(),
                            degraded->value.begin(), degraded->value.end()));

  // The strict path reports the same condition as a typed error.
  Result<AnswerSet> strict = tiny.Evaluate(q1, *analysis, params);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kResourceExhausted);
}

TEST(DegradedBoundedEvalTest, CleanRunIsCompleteAndEqual) {
  Social social;
  FoQuery q1 = Q1(social.schema);
  Result<ControllabilityAnalysis> analysis =
      ControllabilityAnalysis::Analyze(q1.body, social.schema, social.access);
  ASSERT_TRUE(analysis.ok());
  Binding params{{V("p"), Value::Int(3)}};
  BoundedEvaluator evaluator(&social.db);
  Result<AnswerSet> full = evaluator.Evaluate(q1, *analysis, params);
  ASSERT_TRUE(full.ok());
  Result<exec::Degraded<AnswerSet>> degraded =
      evaluator.EvaluateDegraded(q1, *analysis, params);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->complete);
  EXPECT_FALSE(degraded->trip.tripped());
  EXPECT_EQ(degraded->value, *full);
}

TEST(DegradedEmbeddedEvalTest, ApproxFallbackSuppliesAnswersOnTrip) {
  SocialConfig config;
  config.num_persons = 80;
  config.max_friends_per_person = 8;
  config.num_restaurants = 12;
  config.avg_visits_per_person = 14;
  config.num_cities = 2;
  config.num_years = 1;
  config.dated_visits = true;
  config.seed = 17;
  Schema schema = SocialSchema(true);
  Database db = GenerateSocial(config);
  AccessSchema access = SocialAccessSchema(config);
  ASSERT_TRUE(access.BuildIndexes(&db, schema).ok());
  Result<Cq> q3 = ParseCq(
      "Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
      "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")",
      &schema);
  ASSERT_TRUE(q3.ok());
  Result<EmbeddedCqAnalysis> analysis = EmbeddedCqAnalysis::Analyze(
      *q3, schema, access, {V("p"), V("yy")});
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->IsScaleIndependent());

  BoundedEvaluator evaluator(&db);
  exec::GovernorLimits limits;
  limits.fetch_budget = 1;  // far below the chase's needs: must trip
  evaluator.set_limits(limits);
  // A p with at least two friends guarantees the very first chase fetch
  // already exceeds the budget.
  const HashIndex& friend_idx = db.relation("friend").EnsureIndex({0});
  int64_t p = -1;
  for (int64_t candidate = 0; candidate < 40; ++candidate) {
    Tuple key{Value::Int(candidate)};
    const std::vector<uint32_t>* bucket = friend_idx.Lookup(key);
    if (bucket != nullptr && bucket->size() >= 2) {
      p = candidate;
      break;
    }
  }
  ASSERT_GE(p, 0);
  Binding params{{V("p"), Value::Int(p)},
                 {V("yy"), Value::Int(static_cast<int64_t>(config.first_year))}};

  Result<exec::Degraded<AnswerSet>> degraded = evaluator.EvaluateEmbeddedDegraded(
      *analysis, params, /*stats=*/nullptr, /*fallback_to_approx=*/true);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_FALSE(degraded->complete);
  EXPECT_TRUE(degraded->trip.tripped());
  EXPECT_EQ(degraded->fallback, "approx");

  // Without the fallback the partial embedded answer set is empty (the chase
  // emits nothing until fully derived) but the trip is still structured.
  Result<exec::Degraded<AnswerSet>> no_fallback =
      evaluator.EvaluateEmbeddedDegraded(*analysis, params, nullptr, false);
  ASSERT_TRUE(no_fallback.ok());
  EXPECT_FALSE(no_fallback->complete);
  EXPECT_TRUE(no_fallback->fallback.empty());
}

TEST(DegradedExecTest, OutputRowCapYieldsPartialRelation) {
  Schema schema;
  schema.Relation("emp", {"id", "dept", "city"});
  Database db(schema);
  db.Insert("emp", Tuple{Value::Int(1), Value::Str("eng"), Value::Str("NYC")});
  db.Insert("emp", Tuple{Value::Int(2), Value::Str("eng"), Value::Str("LA")});
  db.Insert("emp", Tuple{Value::Int(3), Value::Str("ops"), Value::Str("NYC")});

  exec::ExecContext ctx(&db);
  exec::GovernorLimits limits;
  limits.output_row_cap = 1;
  ctx.set_limits(limits);
  exec::Plan plan =
      exec::PlanRa(RaExpr::Relation("emp", {"id", "dept", "city"}), &ctx);
  exec::Degraded<Relation> out =
      exec::DrainToRelationDegraded(plan.root.get(), plan.attributes.size());
  EXPECT_FALSE(out.complete);
  EXPECT_EQ(out.trip.kind, exec::LimitKind::kOutputRows);
  // The row that tripped the cap is not part of the partial answer.
  EXPECT_EQ(out.value.size(), 1u);
  ASSERT_FALSE(out.ops.empty());

  // The EXPLAIN ANALYZE rendering marks the partial result and tags the
  // tripping operator in the tree.
  std::string rendered = obs::RenderExplainAnalyze(
      out.ops, out.base_tuples_fetched, out.index_lookups,
      /*static_bound=*/-1.0, out.trip);
  EXPECT_NE(rendered.find("[PARTIAL]"), std::string::npos);
  EXPECT_NE(rendered.find("tripped: output-rows"), std::string::npos);
  EXPECT_NE(rendered.find("<-- tripped"), std::string::npos);
}

TEST(DegradedWitnessTest, TrippedGovernorStopsSearchInexact) {
  Schema schema;
  schema.Relation("r", {"a", "b"});
  Database db(schema);
  for (int64_t i = 0; i < 3; ++i) {
    db.Insert("r", Tuple{Value::Int(i), Value::Int(10 + i)});
    db.Insert("r", Tuple{Value::Int(i), Value::Int(20 + i)});
  }
  Result<Cq> q = ParseCq("q(x) :- r(x, y)", &schema);
  ASSERT_TRUE(q.ok());

  exec::ResourceGovernor governor = CancelledGovernor();
  MinWitnessResult capped =
      MinimumWitnessCq(*q, db, /*budget=*/6, 64, &governor);
  EXPECT_FALSE(capped.exact);

  MinWitnessResult free_search = MinimumWitnessCq(*q, db, /*budget=*/6);
  EXPECT_TRUE(free_search.exact);
  ASSERT_TRUE(free_search.witness.has_value());
  EXPECT_EQ(free_search.witness->size(), 3u);  // one support per distinct x
}

TEST(DegradedQdsiTest, TrippedGovernorDegradesToUnknown) {
  Schema schema;
  schema.Relation("r", {"a", "b"});
  Database db(schema);
  for (int64_t i = 0; i < 3; ++i) {
    db.Insert("r", Tuple{Value::Int(i), Value::Int(10 + i)});
    db.Insert("r", Tuple{Value::Int(i), Value::Int(20 + i)});
  }
  Result<Cq> q = ParseCq("q(x) :- r(x, y)", &schema);
  ASSERT_TRUE(q.ok());

  // m below |Q(D)|·‖Q‖ and |D| forces the support-cover search, which must
  // degrade to kUnknown (a prefix cover would be an unsound yes/no).
  exec::ResourceGovernor governor = CancelledGovernor();
  QdsiOptions options;
  options.governor = &governor;
  QdsiDecision capped = DecideQdsiCq(*q, db, /*m=*/2, options);
  EXPECT_EQ(capped.verdict, Verdict::kUnknown);

  QdsiDecision free_run = DecideQdsiCq(*q, db, /*m=*/2);
  EXPECT_NE(free_run.verdict, Verdict::kUnknown);
}

TEST(DegradedMaintainerTest, OneTupleBudgetFailsResourceExhausted) {
  Social social(120);
  AccessSchema access = social.access;
  access.Add("visit", {"id"}, 64);
  ASSERT_TRUE(access.BuildIndexes(&social.db, social.schema).ok());
  Result<Cq> q2 = ParseCq(
      "Q2(p, rn) :- friend(p, id), visit(id, rid), "
      "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")",
      &social.schema);
  ASSERT_TRUE(q2.ok());
  Result<IncrementalMaintainer> m =
      IncrementalMaintainer::Create(*q2, social.schema, access, {V("p")});
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  Binding params{{V("p"), Value::Int(3)}};
  Result<AnswerSet> answers = m->InitialAnswers(&social.db, params);
  ASSERT_TRUE(answers.ok());

  exec::GovernorLimits limits;
  limits.fetch_budget = 1;  // each residual evaluation needs several lookups
  m->set_limits(limits);
  Rng rng(5);
  Update u = VisitInsertions(social.db, social.config, 20, &rng);
  Status s = m->Maintain(&social.db, u, params, &*answers, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);

  // Restoring a workable envelope restores maintenance (fresh baseline: the
  // failed attempt may have partially applied the batch).
  m->set_limits(exec::GovernorLimits{});
  Result<AnswerSet> fresh = m->InitialAnswers(&social.db, params);
  ASSERT_TRUE(fresh.ok());
  Update u2 = VisitInsertions(social.db, social.config, 5, &rng);
  EXPECT_TRUE(m->Maintain(&social.db, u2, params, &*fresh, nullptr).ok());
}

TEST(ShellGovernorTest, LimitCommandControlsTheEnvelope) {
  Shell shell;
  EXPECT_EQ(*shell.Execute("limit"), "no limits set\n");
  ASSERT_TRUE(shell.Execute("limit fetch=2 deadline=5000 rows=10").ok());
  std::string shown = *shell.Execute("limit");
  EXPECT_NE(shown.find("fetch=2"), std::string::npos);
  EXPECT_NE(shown.find("deadline=5000ms"), std::string::npos);
  EXPECT_NE(shown.find("rows=10"), std::string::npos);
  ASSERT_TRUE(shell.Execute("limit off").ok());
  EXPECT_EQ(*shell.Execute("limit"), "no limits set\n");
  EXPECT_FALSE(shell.Execute("limit frobs=3").ok());
  EXPECT_FALSE(shell.Execute("limit fetch=abc").ok());
}

TEST(ShellGovernorTest, LimitOverflowIsRefusedNotWrapped) {
  Shell shell;
  ASSERT_TRUE(shell.Execute("limit fetch=7").ok());
  // 2^64 and 2^64+1 would wrap to 0 (no limit) and 1: both are refused and
  // the armed envelope stays as it was.
  for (const char* line : {"limit fetch=18446744073709551616",
                           "limit fetch=18446744073709551617"}) {
    Result<std::string> out = shell.Execute(line);
    ASSERT_FALSE(out.ok()) << line;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(out.status().message().find("out of range"), std::string::npos);
  }
  EXPECT_NE(shell.Execute("limit")->find("fetch=7"), std::string::npos);
  ASSERT_TRUE(shell.Execute("limit fetch=18446744073709551615").ok());
  EXPECT_NE(shell.Execute("limit")->find("fetch=18446744073709551615"),
            std::string::npos);
}

Shell LoadedShell() {
  Shell shell;
  auto must = [&shell](std::string_view line) {
    Result<std::string> out = shell.Execute(line);
    SI_CHECK_MSG(out.ok(), out.status().message().c_str());
  };
  must("schema relation person(id, name, city)");
  must("schema relation friend(id1, id2)");
  must("access access friend(id1) N=50");
  must("access key person(id)");
  must("row person 1,\"ada\",\"NYC\"");
  must("row person 2,\"bob\",\"LA\"");
  must("row person 3,\"cyd\",\"NYC\"");
  must("row friend 1,2");
  must("row friend 1,3");
  return shell;
}

TEST(ShellGovernorTest, EvalDegradesAndReportsTheTrip) {
  Shell shell = LoadedShell();
  ASSERT_TRUE(shell.Execute("limit fetch=1").ok());
  Result<std::string> out = shell.Execute(
      "eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, "
      "\"NYC\")");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("partial"), std::string::npos);
  EXPECT_NE(out->find("tripped: fetch-budget"), std::string::npos);
}

TEST(ShellGovernorTest, ExplainRendersThePartialTree) {
  Shell shell = LoadedShell();
  ASSERT_TRUE(shell.Execute("limit fetch=1").ok());
  Result<std::string> out = shell.Execute(
      "explain p=1 Q(p, name) := exists id. friend(p, id) and person(id, "
      "name, \"NYC\")");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("[PARTIAL]"), std::string::npos);
  EXPECT_NE(out->find("tripped: fetch-budget"), std::string::npos);
  EXPECT_NE(out->find("partial"), std::string::npos);
}

TEST(ShellGovernorTest, StatsPromExposesTripCounters) {
  Shell shell = LoadedShell();
  ASSERT_TRUE(shell.Execute("limit fetch=1").ok());
  ASSERT_TRUE(shell
                  .Execute("eval p=1 Q(p, name) := exists id. friend(p, id) "
                           "and person(id, name, \"NYC\")")
                  .ok());
  Result<std::string> prom = shell.Execute("stats prom");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("# TYPE shell_queries counter"), std::string::npos);
  EXPECT_NE(prom->find("shell_governor_trips_fetch_budget 1"),
            std::string::npos);
  EXPECT_NE(prom->find("shell_eval_latency_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_FALSE(shell.Execute("stats bogus").ok());
}

}  // namespace
}  // namespace scalein
