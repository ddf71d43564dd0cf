// Governed parallelism tests: the sub-budget lease / charge-log replay
// protocol (exec/governed_parallel.h) must make a governor-armed bounded
// evaluation at any thread count byte-identical to the single-threaded run —
// same answers, same Degraded<T> partial extent, same trip record (kind,
// detail, tripping op, fetched_at_trip), same accounting, and the same
// sealed access certificate. The sweep below drives every deterministic
// trip class (fetch budget mid-fan-out, pre-expired deadline, pre-cancelled
// token, output row cap) across SCALEIN_THREADS ∈ {1, 2, 4, 8}.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "core/embedded_controllability.h"
#include "exec/governor.h"
#include "obs/journal.h"
#include "par/worker_pool.h"
#include "query/parser.h"
#include "workload/social_gen.h"

namespace scalein {
namespace {

Variable V(const char* name) { return Variable::Named(name); }

FoQuery FQ(const char* text, const Schema& s) {
  Result<FoQuery> q = ParseFoQuery(text, &s);
  SI_CHECK_MSG(q.ok(), q.status().message().c_str());
  return *std::move(q);
}

struct ScopedThreads {
  explicit ScopedThreads(size_t n) { par::WorkerPool::Global().Resize(n); }
  ~ScopedThreads() { par::WorkerPool::Global().Resize(1); }
};

// A star fixture sized to exercise every protocol path: person 0 has
// kFriends friends, so the conjunct-expansion frontier is far past the
// fan-out threshold, a 450-tuple budget trips mid-fan-out, and at narrow
// ledgers (low thread counts) worker lanes genuinely starve and re-execute.
constexpr int64_t kFriends = 400;
constexpr const char* kQueryText =
    "Q(p, b, name) := friend(p, b) and person(b, name, \"NYC\")";

Schema FanSchema() {
  Schema s;
  s.Relation("friend", {"a", "b"});
  s.Relation("person", {"id", "name", "city"});
  return s;
}

Database FanDb(const Schema& s) {
  Database db(s);
  for (int64_t k = 0; k < kFriends; ++k) {
    db.Insert("friend", Tuple{Value::Int(0), Value::Int(k)});
    db.Insert("person",
              Tuple{Value::Int(k), Value::Str("n" + std::to_string(k)),
                    Value::Str(k % 2 == 0 ? "NYC" : "LA")});
  }
  return db;
}

AccessSchema FanAccess() {
  AccessSchema a;
  a.Add("friend", {"a"}, 512);
  a.AddKey("person", {"id"});
  return a;
}

struct RunResult {
  exec::Degraded<AnswerSet> degraded;
  BoundedEvalStats stats;
  obs::AccessCertificate cert;
};

/// One governed evaluation plus the certificate the shell would seal for it
/// (CertOp carries no timing fields, so payload equality is exactly the
/// "same per-op accounting" claim).
RunResult RunGoverned(Database* db, const FoQuery& q,
                      const ControllabilityAnalysis& analysis,
                      const Binding& params,
                      const exec::GovernorLimits& limits) {
  BoundedEvaluator evaluator(db);
  evaluator.set_limits(limits);
  RunResult out;
  out.stats.capture_ops = true;
  Result<exec::Degraded<AnswerSet>> r =
      evaluator.EvaluateDegraded(q, analysis, params, &out.stats);
  SI_CHECK_MSG(r.ok(), r.status().message().c_str());
  out.degraded = *std::move(r);
  out.cert.query_fingerprint = "governed-parallel-test";
  out.cert.query_text = kQueryText;
  out.cert.static_bound = out.stats.static_bound;
  out.cert.actual_fetches = out.stats.base_tuples_fetched;
  out.cert.index_lookups = out.stats.index_lookups;
  out.cert.ops.reserve(out.stats.ops.size());
  for (const exec::OpCounters& op : out.stats.ops) {
    obs::CertOp co;
    co.label = op.label;
    co.rows_out = op.rows_out;
    co.tuples_fetched = op.tuples_fetched;
    co.index_lookups = op.index_lookups;
    co.static_bound = op.static_bound;
    out.cert.ops.push_back(std::move(co));
  }
  out.cert.tripped = !out.degraded.complete;
  if (out.cert.tripped) out.cert.trip_reason = out.degraded.trip.ToString();
  obs::SealCertificate(&out.cert);
  return out;
}

void ExpectSameOutcome(const RunResult& ref, const RunResult& got) {
  EXPECT_EQ(got.degraded.value, ref.degraded.value);
  EXPECT_EQ(got.degraded.complete, ref.degraded.complete);
  EXPECT_EQ(got.degraded.trip.kind, ref.degraded.trip.kind);
  EXPECT_EQ(got.degraded.trip.detail, ref.degraded.trip.detail);
  EXPECT_EQ(got.degraded.trip.op_id, ref.degraded.trip.op_id);
  EXPECT_EQ(got.degraded.trip.op_label, ref.degraded.trip.op_label);
  EXPECT_EQ(got.degraded.trip.fetched_at_trip, ref.degraded.trip.fetched_at_trip);
  EXPECT_EQ(got.stats.base_tuples_fetched, ref.stats.base_tuples_fetched);
  EXPECT_EQ(got.stats.index_lookups, ref.stats.index_lookups);
  EXPECT_EQ(got.stats.fetched_by_relation, ref.stats.fetched_by_relation);
  EXPECT_EQ(got.stats.static_bound, ref.stats.static_bound);
  // Byte-identical certificate: payload covers every sealed field, and the
  // FNV-1a signature re-derives from the payload alone.
  EXPECT_EQ(obs::CertificatePayload(got.cert),
            obs::CertificatePayload(ref.cert));
  EXPECT_EQ(got.cert.signature, ref.cert.signature);
  EXPECT_EQ(got.cert.verdict, ref.cert.verdict);
}

/// Runs one scenario at 1 thread, asserts the runs at 2, 4 and 8 threads
/// are identical to it, and returns the 1-thread run.
RunResult ExpectIdenticalAcrossThreads(Database* db, const FoQuery& q,
                                       const ControllabilityAnalysis& analysis,
                                       const Binding& params,
                                       const exec::GovernorLimits& limits) {
  RunResult ref;
  {
    ScopedThreads scoped(1);
    ref = RunGoverned(db, q, analysis, params, limits);
  }
  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedThreads scoped(threads);
    ExpectSameOutcome(ref, RunGoverned(db, q, analysis, params, limits));
  }
  return ref;
}

/// The deterministic trip classes: fetch budget, pre-expired deadline,
/// pre-cancelled token, output row cap (plus a clean armed run).
std::vector<std::pair<std::string, exec::GovernorLimits>> TripScenarios(
    uint64_t budget, uint64_t row_cap) {
  static const exec::CancellationToken cancelled = [] {
    exec::CancellationToken token;
    token.Cancel();
    return token;
  }();
  std::vector<std::pair<std::string, exec::GovernorLimits>> scenarios(5);
  scenarios[0].first = "clean-governed";
  scenarios[0].second.fetch_budget = 1ULL << 30;
  scenarios[1].first = "fetch-budget-mid-fanout";
  scenarios[1].second.fetch_budget = budget;
  // Absolute deadline in the past: detected at the first amortized time
  // check (probe kCheckInterval), the deterministic deadline case.
  scenarios[2].first = "pre-expired-deadline";
  scenarios[2].second.deadline_ns = 1;
  scenarios[3].first = "pre-cancelled";
  scenarios[3].second.has_cancel = true;
  scenarios[3].second.cancel = cancelled;
  scenarios[4].first = "output-row-cap";
  scenarios[4].second.output_row_cap = row_cap;
  return scenarios;
}

TEST(GovernedParallelTest, TripsAndCertificatesIdenticalAcrossThreadCounts) {
  Schema schema = FanSchema();
  Database db = FanDb(schema);
  AccessSchema access = FanAccess();
  ASSERT_TRUE(access.BuildIndexes(&db, schema).ok());
  FoQuery q = FQ(kQueryText, schema);
  Result<ControllabilityAnalysis> analysis =
      ControllabilityAnalysis::Analyze(q.body, schema, access);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  Binding params{{V("p"), Value::Int(0)}};

  // The budget trips at the 51st person probe (400 friend tuples + 51 >
  // 450), deep inside the fan-out region; at 2 lanes the shared ledger (50
  // remaining + 2 chunks of slack) also starves lanes, exercising
  // re-execution.
  for (const auto& [name, limits] : TripScenarios(450, 5)) {
    SCOPED_TRACE(name);
    const RunResult ref =
        ExpectIdenticalAcrossThreads(&db, q, *analysis, params, limits);
    if (name == "clean-governed") {
      EXPECT_TRUE(ref.degraded.complete);
      EXPECT_EQ(ref.degraded.value.size(), 200u);  // the NYC half
    } else {
      EXPECT_FALSE(ref.degraded.complete);
    }
    if (name == "fetch-budget-mid-fanout") {
      EXPECT_EQ(ref.degraded.trip.kind, exec::LimitKind::kFetchBudget);
    }
    if (name == "pre-expired-deadline") {
      EXPECT_EQ(ref.degraded.trip.kind, exec::LimitKind::kDeadline);
    }
    if (name == "pre-cancelled") {
      EXPECT_EQ(ref.degraded.trip.kind, exec::LimitKind::kCancelled);
    }
    if (name == "output-row-cap") {
      EXPECT_EQ(ref.degraded.trip.kind, exec::LimitKind::kOutputRows);
      EXPECT_EQ(ref.degraded.value.size(), 5u);
    }
  }
}

/// Two-hop fixture for the `or` and `forall` blocks: person 0 has 40
/// friends, each with 20 friends of its own, and ten of those live outside
/// NYC — so the `or` operand's nested conjunction and the `forall` stage
/// both fan out, and the universal check fails for some friends and holds
/// for others.
TEST(GovernedParallelTest, OrAndForallBlocksIdenticalAcrossThreadCounts) {
  Schema schema = FanSchema();
  Database db(schema);
  for (int64_t a = 1; a <= 40; ++a) {
    db.Insert("friend", Tuple{Value::Int(0), Value::Int(a)});
    for (int64_t j = 0; j < 20; ++j) {
      // Friends of a: a window of 20 of the ids 100..159.
      const int64_t b = 100 + (a * 3 + j) % 60;
      db.Insert("friend", Tuple{Value::Int(a), Value::Int(b)});
    }
  }
  for (int64_t id = 0; id < 160; ++id) {
    const bool nyc = id < 100 || id >= 110;
    db.Insert("person", Tuple{Value::Int(id), Value::Str("n" + std::to_string(id)),
                              Value::Str(nyc ? "NYC" : "LA")});
  }
  AccessSchema access;
  access.Add("friend", {"a"}, 64);
  access.AddKey("person", {"id"});
  ASSERT_TRUE(access.BuildIndexes(&db, schema).ok());
  const Binding params{{V("p"), Value::Int(0)}};
  const char* shapes[] = {
      "O(p, x) := friend(p, x) or (exists a. friend(p, a) and friend(a, x))",
      "A(p, a) := friend(p, a) and forall b. (friend(a, b) implies exists n. "
      "person(b, n, \"NYC\"))",
  };
  for (const char* text : shapes) {
    SCOPED_TRACE(text);
    FoQuery q = FQ(text, schema);
    Result<ControllabilityAnalysis> analysis =
        ControllabilityAnalysis::Analyze(q.body, schema, access);
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    for (const auto& [name, limits] : TripScenarios(300, 3)) {
      SCOPED_TRACE(name);
      const RunResult ref =
          ExpectIdenticalAcrossThreads(&db, q, *analysis, params, limits);
      EXPECT_EQ(ref.degraded.complete, name == "clean-governed");
      if (name == "clean-governed") {
        EXPECT_GT(ref.degraded.value.size(), 3u);
        EXPECT_GT(ref.stats.base_tuples_fetched, 300u);
      }
    }
  }
}

TEST(GovernedParallelTest, UngovernedFanOutMatchesSequentialAndReportsLanes) {
  Schema schema = FanSchema();
  Database db = FanDb(schema);
  AccessSchema access = FanAccess();
  ASSERT_TRUE(access.BuildIndexes(&db, schema).ok());
  FoQuery q = FQ(kQueryText, schema);
  Result<ControllabilityAnalysis> analysis =
      ControllabilityAnalysis::Analyze(q.body, schema, access);
  ASSERT_TRUE(analysis.ok());
  Binding params{{V("p"), Value::Int(0)}};

  BoundedEvaluator evaluator(&db);
  BoundedEvalStats seq_stats;
  AnswerSet expected;
  {
    ScopedThreads scoped(1);
    Result<AnswerSet> r = evaluator.Evaluate(q, *analysis, params, &seq_stats);
    ASSERT_TRUE(r.ok());
    expected = *std::move(r);
  }
  EXPECT_TRUE(seq_stats.fetched_by_lane.empty());

  ScopedThreads scoped(4);
  BoundedEvalStats par_stats;
  Result<AnswerSet> r = evaluator.Evaluate(q, *analysis, params, &par_stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, expected);
  EXPECT_EQ(par_stats.base_tuples_fetched, seq_stats.base_tuples_fetched);
  EXPECT_EQ(par_stats.index_lookups, seq_stats.index_lookups);
  EXPECT_EQ(par_stats.fetched_by_relation, seq_stats.fetched_by_relation);
  // Per-lane observability: the fan-out reports raw per-lane probe traffic
  // without perturbing the deterministic totals above.
  ASSERT_FALSE(par_stats.fetched_by_lane.empty());
  uint64_t lane_total = 0;
  for (const auto& [lane, fetched] : par_stats.fetched_by_lane) {
    EXPECT_GE(lane, 0);
    EXPECT_LT(lane, 4);
    lane_total += fetched;
  }
  EXPECT_GT(lane_total, 0u);
}

TEST(GovernedParallelTest, EmbeddedBudgetTripIdenticalAcrossThreadCounts) {
  SocialConfig config;
  config.num_persons = 120;
  config.max_friends_per_person = 40;
  config.num_restaurants = 12;
  config.avg_visits_per_person = 10;
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
  Result<EmbeddedCqAnalysis> analysis =
      EmbeddedCqAnalysis::Analyze(*q3, schema, access, {V("p"), V("yy")});
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->IsScaleIndependent());

  // A parameter whose chase frontier is wide enough to fan out.
  const HashIndex& friend_idx = db.relation("friend").EnsureIndex({0});
  int64_t p = -1;
  for (int64_t candidate = 0; candidate < 120; ++candidate) {
    const std::vector<uint32_t>* bucket =
        friend_idx.Lookup(Tuple{Value::Int(candidate)});
    if (bucket != nullptr && bucket->size() >= 16) {
      p = candidate;
      break;
    }
  }
  ASSERT_GE(p, 0) << "fixture produced no person with a wide friend frontier";
  Binding params{{V("p"), Value::Int(p)}, {V("yy"), Value::Int(0)}};

  BoundedEvaluator evaluator(&db);
  BoundedEvalStats clean_stats;
  {
    ScopedThreads scoped(1);
    Result<AnswerSet> clean =
        evaluator.EvaluateEmbedded(*analysis, params, &clean_stats);
    ASSERT_TRUE(clean.ok());
  }
  ASSERT_GT(clean_stats.base_tuples_fetched, 4u);

  exec::GovernorLimits limits;
  limits.fetch_budget = clean_stats.base_tuples_fetched / 2;
  evaluator.set_limits(limits);

  exec::Degraded<AnswerSet> ref;
  BoundedEvalStats ref_stats;
  {
    ScopedThreads scoped(1);
    Result<exec::Degraded<AnswerSet>> r =
        evaluator.EvaluateEmbeddedDegraded(*analysis, params, &ref_stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ref = *std::move(r);
  }
  EXPECT_FALSE(ref.complete);
  EXPECT_EQ(ref.trip.kind, exec::LimitKind::kFetchBudget);

  for (size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedThreads scoped(threads);
    BoundedEvalStats stats;
    Result<exec::Degraded<AnswerSet>> r =
        evaluator.EvaluateEmbeddedDegraded(*analysis, params, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->value, ref.value);
    EXPECT_EQ(r->complete, ref.complete);
    EXPECT_EQ(r->trip.kind, ref.trip.kind);
    EXPECT_EQ(r->trip.detail, ref.trip.detail);
    EXPECT_EQ(r->trip.fetched_at_trip, ref.trip.fetched_at_trip);
    EXPECT_EQ(stats.base_tuples_fetched, ref_stats.base_tuples_fetched);
    EXPECT_EQ(stats.index_lookups, ref_stats.index_lookups);
    EXPECT_EQ(stats.fetched_by_relation, ref_stats.fetched_by_relation);
  }
}

TEST(SharedLedgerTest, AcquireGrantsUpToCapacityThenZero) {
  exec::SharedLedger ledger;
  EXPECT_TRUE(ledger.unlimited());
  EXPECT_EQ(ledger.Acquire(1000), 1000u);  // unlimited: granted in full
  ledger.Init(100, 2);  // capacity = 100 + 2 chunks of slack = 228
  EXPECT_FALSE(ledger.unlimited());
  EXPECT_EQ(ledger.Acquire(200), 200u);
  EXPECT_EQ(ledger.Acquire(200), 28u);  // partial final grant
  EXPECT_EQ(ledger.Acquire(1), 0u);     // exhausted
}

// Release() is the serve-layer refund path: a session envelope returns the
// unspent part of its lease when a query finishes (or the whole lease when
// the session closes), making the units acquirable again.
TEST(SharedLedgerTest, ReleaseRefundsUnspentLeaseUnits) {
  exec::SharedLedger ledger;
  ledger.Init(100, 0);  // no lane slack: capacity is exactly 100
  EXPECT_EQ(ledger.Acquire(100), 100u);
  EXPECT_EQ(ledger.Acquire(1), 0u);  // drained
  ledger.Release(60);                // refund the unspent part of the lease
  EXPECT_EQ(ledger.Acquire(100), 60u);
  EXPECT_EQ(ledger.Acquire(1), 0u);
}

TEST(SharedLedgerTest, ReleaseClampsAtCapacityAndIgnoresUnlimited) {
  exec::SharedLedger unlimited;
  unlimited.Release(1ULL << 40);  // no-op: unlimited ledger has no pool
  EXPECT_TRUE(unlimited.unlimited());
  EXPECT_EQ(unlimited.Acquire(7), 7u);

  exec::SharedLedger ledger;
  ledger.Init(10, 0);
  EXPECT_EQ(ledger.Acquire(10), 10u);
  // An over-refund (buggy caller double-releasing) must not mint new budget
  // beyond what was actually reserved.
  ledger.Release(1000);
  uint64_t regained = ledger.Acquire(1000);
  EXPECT_LE(regained, 10u);
  EXPECT_GE(regained, 10u);  // the legitimate 10 do come back
}

TEST(SubBudgetTest, ChargesThroughChunkedLeasesUntilStarved) {
  exec::SharedLedger ledger;
  ledger.Init(0, 1);  // exactly one chunk of slack
  exec::SubBudget lease;
  lease.Attach(&ledger);
  for (uint64_t i = 0; i < exec::SubBudget::kChunk; ++i) {
    EXPECT_TRUE(lease.Charge(1)) << i;
  }
  EXPECT_FALSE(lease.Charge(1));  // ledger dry: the lane is starved

  exec::SubBudget detached;  // no ledger: every charge is free
  EXPECT_TRUE(detached.Charge(1ULL << 20));
}

}  // namespace
}  // namespace scalein
