// Golden suite for the bounded executor. Every record in
// tests/golden/bounded_certificates.txt holds one evaluation's observables —
// status, answers, completeness, fetch and lookup totals, per-relation
// fetches, the trip record, the per-op forest and the sealed certificate
// payload — and every case must reproduce its record byte for byte at
// threads 1 and 4. Plain cases run twice: through BoundedEvaluator (compile
// per call) and through a CompiledPlanSet's cached program on the VM (the
// shell/serve path); both must match the record.
//
// The records were taken from the map-binding interpreter that preceded the
// register VM, so they pin the VM to that engine's answers, charge order,
// trip points and certificates, `or`/`forall`/nested shapes included.
// Answers are also judged against the reference semantics elsewhere
// (controllability_fuzz_test: FoEvaluator answers, fetched <= static bound).
//
// On any mismatch or missing record the suite writes everything it produced,
// in production order, to `bounded_certificates.txt.actual` in the working
// directory. Re-recording is: delete the golden file, run this binary, copy
// the .actual file over it.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "core/analysis_cache.h"
#include "core/bounded_eval.h"
#include "exec/compiler.h"
#include "exec/vm.h"
#include "io/shell.h"
#include "obs/journal.h"
#include "par/worker_pool.h"
#include "query/parser.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workload/social_gen.h"

namespace scalein {
namespace {

constexpr const char* kGoldenPath =
    SCALEIN_GOLDEN_DIR "/bounded_certificates.txt";
constexpr const char* kActualPath = "bounded_certificates.txt.actual";

Variable V(const char* name) { return Variable::Named(name); }

FoQuery FQ(const char* text, const Schema& s) {
  Result<FoQuery> q = ParseFoQuery(text, &s);
  SI_CHECK_MSG(q.ok(), q.status().message().c_str());
  return *std::move(q);
}

std::shared_ptr<const ControllabilityAnalysis> Analyze(const FoQuery& q,
                                                       const Schema& s,
                                                       const AccessSchema& a) {
  Result<ControllabilityAnalysis> r =
      ControllabilityAnalysis::Analyze(q.body, s, a);
  SI_CHECK_MSG(r.ok(), r.status().message().c_str());
  return std::make_shared<const ControllabilityAnalysis>(*std::move(r));
}

// ---------------------------------------------------------------------------
// Golden file plumbing.

struct Golden {
  std::map<std::string, std::string> records;  ///< case name → record body
  std::vector<std::pair<std::string, std::string>> produced;
  bool dirty = false;

  static Golden& Get() {
    static Golden* g = [] {
      auto* golden = new Golden();
      std::ifstream in(kGoldenPath);
      std::string line, name, body;
      auto flush = [&] {
        if (!name.empty()) golden->records[name] = body;
        name.clear();
        body.clear();
      };
      while (std::getline(in, line)) {
        if (line.rfind("# ", 0) == 0) {
          flush();
          name = line.substr(2);
        } else {
          body += line + "\n";
        }
      }
      flush();
      return golden;
    }();
    return *g;
  }
};

/// Writes the produced records whenever some record did not match.
class GoldenEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    Golden& g = Golden::Get();
    if (!g.dirty) return;
    std::ofstream out(kActualPath);
    for (const auto& [name, body] : g.produced) out << "# " << name << "\n" << body;
  }
};

const ::testing::Environment* const kGoldenEnv =
    ::testing::AddGlobalTestEnvironment(new GoldenEnvironment);

void ExpectGolden(const std::string& name, const std::string& body) {
  Golden& g = Golden::Get();
  g.produced.emplace_back(name, body);
  auto it = g.records.find(name);
  if (it == g.records.end()) {
    g.dirty = true;
    ADD_FAILURE() << "no golden record for " << name;
    return;
  }
  if (it->second != body) g.dirty = true;
  EXPECT_EQ(it->second, body) << name;
}

/// Restores a single-lane pool when a test returns (other tests in this
/// binary assume the default).
struct PoolGuard {
  ~PoolGuard() { par::WorkerPool::Global().Resize(1); }
};

/// Runs `record(threads)` at threads 1 and 4; both must equal the golden.
template <typename Fn>
void ExpectGoldenAtThreads(const std::string& name, const Fn& record) {
  PoolGuard guard;
  par::WorkerPool::Global().Resize(1);
  const std::string one = record();
  par::WorkerPool::Global().Resize(4);
  const std::string four = record();
  EXPECT_EQ(one, four) << name << ": threads 1 vs 4";
  ExpectGolden(name, one);
}

// ---------------------------------------------------------------------------
// Record rendering.

std::string StatusLine(const Status& s) {
  return "status=" + std::string(s.ok() ? "ok" : s.ToString()) + "\n";
}

std::string AnswersLine(const AnswerSet& answers) {
  std::string out = "answers=" + std::to_string(answers.size());
  for (const Tuple& t : answers) out += " " + TupleToString(t);
  return out + "\n";
}

std::string TripLine(const exec::TripInfo& trip) {
  if (!trip.tripped()) return "trip=none\n";
  return std::string("trip=") + exec::LimitKindName(trip.kind) +
         "|op=" + std::to_string(trip.op_id) + ":" + trip.op_label +
         "|at=" + std::to_string(trip.fetched_at_trip) + "|" + trip.detail +
         "\n";
}

/// Totals, per-relation fetches, the per-op forest (id, parent, counters,
/// static bound) and the sealed certificate payload + signature.
std::string StatsLines(const BoundedEvalStats& stats, bool tripped,
                       const exec::TripInfo& trip) {
  std::string out = "fetched=" + std::to_string(stats.base_tuples_fetched) +
                    " lookups=" + std::to_string(stats.index_lookups) +
                    " bound=" + std::to_string(stats.static_bound) + " by_rel=";
  for (const auto& [rel, n] : stats.fetched_by_relation) {
    out += rel + ":" + std::to_string(n) + ",";
  }
  out += "\nforest=";
  for (const exec::OpCounters& op : stats.ops) {
    out += " " + std::to_string(op.id) + "<" + std::to_string(op.parent) +
           ":" + op.label + ":" + std::to_string(op.rows_out) + "/" +
           std::to_string(op.tuples_fetched) + "/" +
           std::to_string(op.index_lookups);
  }
  obs::AccessCertificate cert;
  cert.query_fingerprint = "fp-golden";
  cert.query_id = "s0-q0";
  cert.query_text = "Q";
  cert.static_bound = stats.static_bound;
  cert.actual_fetches = stats.base_tuples_fetched;
  cert.index_lookups = stats.index_lookups;
  for (const exec::OpCounters& op : stats.ops) {
    obs::CertOp co;
    co.label = op.label;
    co.rows_out = op.rows_out;
    co.tuples_fetched = op.tuples_fetched;
    co.index_lookups = op.index_lookups;
    co.static_bound = op.static_bound;
    cert.ops.push_back(std::move(co));
  }
  cert.tripped = tripped;
  if (tripped) cert.trip_reason = trip.ToString();
  obs::SealCertificate(&cert);
  std::ostringstream sig;
  sig << std::hex << cert.signature;
  return out + "\npayload=" + obs::CertificatePayload(cert) +
         " sig=" + sig.str() + "\n";
}

std::string DegradedRecord(const Result<exec::Degraded<AnswerSet>>& r,
                           const BoundedEvalStats& stats) {
  if (!r.ok()) return StatusLine(r.status());
  std::string out = StatusLine(Status::OK());
  out += "complete=" + std::to_string(r->complete) +
         " degraded_fetched=" + std::to_string(r->base_tuples_fetched) +
         " degraded_lookups=" + std::to_string(r->index_lookups) +
         " fallback=" + r->fallback + "\n";
  out += AnswersLine(r->value) + TripLine(r->trip);
  return out + StatsLines(stats, !r->complete, r->trip);
}

std::string AnswerRecord(const Result<AnswerSet>& r,
                         const BoundedEvalStats& stats) {
  if (!r.ok()) return StatusLine(r.status());
  return StatusLine(Status::OK()) + AnswersLine(*r) +
         StatsLines(stats, false, exec::TripInfo());
}

/// One plain evaluation through the degradation-aware entry point, with the
/// op forest captured.
std::string PlainRecord(const FoQuery& q,
                        const ControllabilityAnalysis& analysis, Database* db,
                        const Binding& params,
                        const exec::GovernorLimits& limits, bool enforce) {
  BoundedEvaluator eval(db);
  eval.set_limits(limits);
  eval.set_enforce_bounds(enforce);
  BoundedEvalStats stats;
  stats.capture_ops = true;
  return DegradedRecord(eval.EvaluateDegraded(q, analysis, params, &stats),
                        stats);
}

/// The same evaluation on a plan set's cached program.
std::string CachedProgramRecord(
    exec::CompiledPlanSet* plans, const FoQuery& q,
    const std::shared_ptr<const ControllabilityAnalysis>& analysis,
    Database* db, const Binding& params, const exec::GovernorLimits& limits,
    bool enforce) {
  Result<std::shared_ptr<const exec::CompiledProgram>> program =
      plans->Plain(q, analysis, BoundVars(params));
  if (!program.ok()) return StatusLine(program.status());
  exec::CompiledEvaluator vm(db);
  vm.set_limits(limits);
  vm.set_enforce_bounds(enforce);
  BoundedEvalStats stats;
  stats.capture_ops = true;
  return DegradedRecord(vm.EvaluateDegraded(**program, params, &stats), stats);
}

std::string ParamsText(const Binding& params) {
  std::string out;
  for (const auto& [v, val] : params) {
    out += (out.empty() ? "" : ",") + v.name() + "=" + val.ToString();
  }
  return out;
}

std::string LimitsText(const exec::GovernorLimits& limits) {
  std::string out;
  if (limits.fetch_budget > 0) out += " budget=" + std::to_string(limits.fetch_budget);
  if (limits.output_row_cap > 0) out += " rows=" + std::to_string(limits.output_row_cap);
  return out;
}

void ExpectPlainGolden(
    const std::string& label, const FoQuery& q,
    const std::shared_ptr<const ControllabilityAnalysis>& analysis,
    Database* db, const Binding& params,
    const exec::GovernorLimits& limits = {}, bool enforce = false) {
  const std::string name = label + " " + ParamsText(params) +
                           LimitsText(limits) + (enforce ? " enforce" : "");
  exec::CompiledPlanSet plans;
  ExpectGoldenAtThreads(name, [&] {
    const std::string record =
        PlainRecord(q, *analysis, db, params, limits, enforce);
    EXPECT_EQ(record, CachedProgramRecord(&plans, q, analysis, db, params,
                                          limits, enforce))
        << name << ": cached program differs";
    return record;
  });
}

// ---------------------------------------------------------------------------
// Fixtures.

struct Social {
  SocialConfig config;
  Schema schema = SocialSchema(false);
  Database db{Schema{}};
  AccessSchema access;

  Social(uint64_t persons, uint64_t max_friends = 10, uint64_t seed = 99) {
    config.num_persons = persons;
    config.max_friends_per_person = max_friends;
    config.num_restaurants = 40;
    config.num_cities = 3;
    config.seed = seed;
    db = GenerateSocial(config);
    access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());
  }
};

constexpr const char* kQ1 =
    "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")";

TEST(GoldenTest, Q1AcrossParams) {
  Social social(120);
  FoQuery q1 = FQ(kQ1, social.schema);
  auto analysis = Analyze(q1, social.schema, social.access);
  for (int64_t p = 0; p < 12; ++p) {
    ExpectPlainGolden("q1", q1, analysis, &social.db, {{V("p"), Value::Int(p)}});
  }
}

TEST(GoldenTest, Q1FetchBudgetTrips) {
  Social social(120);
  FoQuery q1 = FQ(kQ1, social.schema);
  auto analysis = Analyze(q1, social.schema, social.access);
  for (uint64_t budget = 1; budget <= 12; ++budget) {
    exec::GovernorLimits limits;
    limits.fetch_budget = budget;
    ExpectPlainGolden("q1", q1, analysis, &social.db,
                      {{V("p"), Value::Int(5)}}, limits);
  }
}

TEST(GoldenTest, Q1OutputRowCapTrips) {
  Social social(120);
  FoQuery q1 = FQ(kQ1, social.schema);
  auto analysis = Analyze(q1, social.schema, social.access);
  for (uint64_t cap : {uint64_t{1}, uint64_t{2}, uint64_t{100}}) {
    exec::GovernorLimits limits;
    limits.output_row_cap = cap;
    ExpectPlainGolden("q1", q1, analysis, &social.db,
                      {{V("p"), Value::Int(3)}}, limits);
  }
}

TEST(GoldenTest, EnforceBoundsErrors) {
  Schema s;
  s.Relation("e", {"a", "b"});
  Database db(s);
  for (int64_t i = 0; i < 5; ++i) {
    db.Insert("e", Tuple{Value::Int(1), Value::Int(i)});
  }
  AccessSchema access;
  access.Add("e", {"a"}, 2);  // declared N = 2, actual 5
  FoQuery q = FQ("Q(x, y) := e(x, y)", s);
  auto analysis = Analyze(q, s, access);
  ExpectPlainGolden("enforce", q, analysis, &db, {{V("x"), Value::Int(1)}},
                    {}, /*enforce=*/true);
}

/// Two-relation databases with ≤ 3 tuples per key: the shape corpus of the
/// bounded-evaluation property test plus nested or/forall/negation shapes.
TEST(GoldenTest, PropertyShapes) {
  const char* queries[] = {
      "Q(x, y) := r(x, y)",
      "Q(x, z) := exists y. r(x, y) and t(y, z)",
      "Q(x, y) := r(x, y) and not t(x, y)",
      "Q(x) := exists y. r(x, y) and t(x, y)",
      "Q(x, y) := r(x, y) and (y = 2 or y = 3)",
      "Q(x) := forall y. r(x, y) implies t(x, y)",
      "Q(x, y) := r(x, y) or t(x, y)",
      "Q(x, z) := exists y. r(x, y) and (t(y, z) or r(y, z))",
      "Q(x, y) := r(x, y) and not (exists z. t(y, z))",
      "Q(x, y) := r(x, y) and (forall z. t(y, z) implies r(z, y))",
      "Q(x, y) := (r(x, y) and not t(x, y)) or (t(x, y) and y = 1)",
  };
  for (uint64_t seed : {101u, 202u, 303u, 404u}) {
    Rng rng(seed);
    Schema s;
    s.Relation("r", {"a", "b"});
    s.Relation("t", {"a", "b"});
    Database db(s);
    for (int rel = 0; rel < 2; ++rel) {
      const char* name = rel == 0 ? "r" : "t";
      for (int64_t key = 0; key < 24; ++key) {
        uint64_t group = rng.Uniform(4);
        for (uint64_t g = 0; g < group; ++g) {
          db.Insert(name,
                    Tuple{Value::Int(key),
                          Value::Int(static_cast<int64_t>(rng.Uniform(6)))});
        }
      }
    }
    AccessSchema access;
    access.Add("r", {"a"}, 3);
    access.Add("t", {"a"}, 3);
    access.Add("t", {"a", "b"}, 1);
    access.Add("r", {"a", "b"}, 1);
    ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
    for (const char* text : queries) {
      FoQuery q = FQ(text, s);
      auto analysis = Analyze(q, s, access);
      if (!analysis->IsControlledBy({V("x")})) continue;
      for (int64_t p = 0; p < 6; ++p) {
        ExpectPlainGolden("shapes seed=" + std::to_string(seed) + " " + text,
                          q, analysis, &db, {{V("x"), Value::Int(p)}});
      }
    }
  }
}

TEST(GoldenTest, WideFrontierFanOut) {
  // ≥ 16 partial bindings after the first expand forces the governed morsel
  // fan-out at threads=4.
  Schema s;
  s.Relation("r", {"a", "b"});
  s.Relation("t", {"a", "b"});
  Database db(s);
  for (int64_t i = 0; i < 40; ++i) {
    db.Insert("r", Tuple{Value::Int(1), Value::Int(i)});
    db.Insert("t", Tuple{Value::Int(i), Value::Int(i % 7)});
  }
  AccessSchema access;
  access.Add("r", {"a"}, 64);
  access.Add("t", {"a"}, 64);
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  FoQuery q = FQ("Q(x, z) := exists y. r(x, y) and t(y, z)", s);
  auto analysis = Analyze(q, s, access);
  const Binding params{{V("x"), Value::Int(1)}};
  ExpectPlainGolden("wide", q, analysis, &db, params);
  for (uint64_t budget : {uint64_t{5}, uint64_t{20}, uint64_t{45}}) {
    exec::GovernorLimits limits;
    limits.fetch_budget = budget;
    ExpectPlainGolden("wide", q, analysis, &db, params, limits);
  }
}

TEST(GoldenTest, BatchEvaluation) {
  Social social(80);
  FoQuery q1 = FQ(kQ1, social.schema);
  auto analysis = Analyze(q1, social.schema, social.access);
  std::vector<Binding> batch;
  for (int64_t p = 0; p < 20; ++p) batch.push_back({{V("p"), Value::Int(p)}});
  ExpectGoldenAtThreads("batch q1 p=0..19", [&] {
    BoundedEvaluator eval(&social.db);
    BoundedEvalStats stats;
    std::vector<Result<AnswerSet>> out =
        eval.EvaluateBatch(q1, *analysis, batch, &stats);
    std::string record;
    for (const Result<AnswerSet>& r : out) {
      record += r.ok() ? AnswersLine(*r) : StatusLine(r.status());
    }
    return record + StatsLines(stats, false, exec::TripInfo());
  });
}

/// The fanout workload's `or` and `forall` shapes over a small social graph
/// whose busiest persons have ≥ 16 friends (so frontiers fan out at 4
/// threads): unconstrained, every fetch budget up to the unconstrained fetch
/// count, and row caps 1/2/100.
TEST(GoldenTest, FanoutOrAndForallShapes) {
  Social social(48, /*max_friends=*/24, /*seed=*/7);
  const char* shapes[] = {
      "O(p, x) := friend(p, x) or (exists a. friend(p, a) and friend(a, x))",
      "A(p, a) := friend(p, a) and forall b. (friend(a, b) implies exists n. "
      "person(b, n, \"NYC\"))",
  };
  // The first person with ≥ 16 friends, and the first with fewer than 4.
  const Relation& friends = social.db.relation("friend");
  std::map<int64_t, size_t> degree;
  for (size_t i = 0; i < friends.size(); ++i) {
    ++degree[friends.TupleAt(i)[0].AsInt()];
  }
  int64_t wide = -1, narrow = -1;
  for (const auto& [p, d] : degree) {
    if (wide < 0 && d >= 16) wide = p;
    if (narrow < 0 && d < 4) narrow = p;
  }
  ASSERT_GE(wide, 0);
  ASSERT_GE(narrow, 0);
  for (const char* text : shapes) {
    FoQuery q = FQ(text, social.schema);
    auto analysis = Analyze(q, social.schema, social.access);
    for (int64_t p : {wide, narrow}) {
      const Binding params{{V("p"), Value::Int(p)}};
      const std::string label = std::string("fanout ") + text;
      ExpectPlainGolden(label, q, analysis, &social.db, params);
      BoundedEvaluator probe(&social.db);
      BoundedEvalStats stats;
      ASSERT_TRUE(probe.Evaluate(q, *analysis, params, &stats).ok());
      for (uint64_t budget = 1; budget <= stats.base_tuples_fetched;
           ++budget) {
        exec::GovernorLimits limits;
        limits.fetch_budget = budget;
        ExpectPlainGolden(label, q, analysis, &social.db, params, limits);
      }
      for (uint64_t cap : {uint64_t{1}, uint64_t{2}, uint64_t{100}}) {
        exec::GovernorLimits limits;
        limits.output_row_cap = cap;
        ExpectPlainGolden(label, q, analysis, &social.db, params, limits);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Embedded (Proposition 4.5 chase).

struct DatedSocial {
  SocialConfig config;
  Schema schema = SocialSchema(true);
  Database db{Schema{}};
  AccessSchema access;

  DatedSocial() {
    config.num_persons = 80;
    config.max_friends_per_person = 8;
    config.num_restaurants = 12;
    config.avg_visits_per_person = 14;
    config.num_cities = 2;
    config.num_years = 1;
    config.dated_visits = true;
    config.seed = 17;
    db = GenerateSocial(config);
    access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());
  }

  EmbeddedCqAnalysis Analysis() {
    Result<Cq> q = ParseCq(
        "Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
        "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")",
        &schema);
    SI_CHECK_MSG(q.ok(), q.status().message().c_str());
    Result<EmbeddedCqAnalysis> a =
        EmbeddedCqAnalysis::Analyze(*q, schema, access, {V("p"), V("yy")});
    SI_CHECK_MSG(a.ok(), a.status().message().c_str());
    SI_CHECK(a->IsScaleIndependent());
    return *std::move(a);
  }

  Binding Params(int64_t p) {
    return {{V("p"), Value::Int(p)},
            {V("yy"), Value::Int(static_cast<int64_t>(config.first_year))}};
  }
};

TEST(GoldenTest, EmbeddedAcrossParams) {
  DatedSocial social;
  EmbeddedCqAnalysis analysis = social.Analysis();
  for (int64_t p = 0; p < 20; ++p) {
    ExpectGoldenAtThreads("embedded q3 p=" + std::to_string(p), [&] {
      BoundedEvaluator eval(&social.db);
      BoundedEvalStats stats;
      stats.capture_ops = true;
      return AnswerRecord(
          eval.EvaluateEmbedded(analysis, social.Params(p), &stats), stats);
    });
  }
}

TEST(GoldenTest, EmbeddedDegradedTrips) {
  DatedSocial social;
  EmbeddedCqAnalysis analysis = social.Analysis();
  for (uint64_t budget : {uint64_t{1}, uint64_t{3}, uint64_t{10}}) {
    ExpectGoldenAtThreads(
        "embedded q3 degraded p=3 budget=" + std::to_string(budget), [&] {
          exec::GovernorLimits limits;
          limits.fetch_budget = budget;
          BoundedEvaluator eval(&social.db);
          eval.set_limits(limits);
          BoundedEvalStats stats;
          stats.capture_ops = true;
          return DegradedRecord(eval.EvaluateEmbeddedDegraded(
                                    analysis, social.Params(3), &stats),
                                stats);
        });
  }
}

TEST(GoldenTest, EmbeddedFailpointErrors) {
  DatedSocial social;
  EmbeddedCqAnalysis analysis = social.Analysis();
  struct FailpointGuard {
    ~FailpointGuard() { util::Failpoints::Global().Clear(); }
  } fp_guard;
  ExpectGoldenAtThreads("embedded q3 chase_step=error(every:2) p=3", [&] {
    // The every-2 stream is global; reset it per run so every run sees the
    // same fire schedule.
    SI_CHECK(util::Failpoints::Global()
                 .Configure("chase_step=error(every:2)")
                 .ok());
    BoundedEvaluator eval(&social.db);
    return StatusLine(eval.EvaluateEmbedded(analysis, social.Params(3)).status());
  });
}

TEST(GoldenTest, EmbeddedExtraBindings) {
  // Bindings beyond the analysis' parameters seed the chase like
  // parameters: they filter candidates and stay in the answers.
  DatedSocial social;
  EmbeddedCqAnalysis analysis = social.Analysis();
  for (int64_t p = 0; p < 6; ++p) {
    for (int64_t rid : {0, 1, 2}) {
      Binding params = social.Params(p);
      params.emplace(V("rid"), Value::Int(rid));
      ExpectGoldenAtThreads("embedded q3 extra p=" + std::to_string(p) +
                                " rid=" + std::to_string(rid),
                            [&] {
                              BoundedEvaluator eval(&social.db);
                              BoundedEvalStats stats;
                              stats.capture_ops = true;
                              return AnswerRecord(
                                  eval.EvaluateEmbedded(analysis, params,
                                                        &stats),
                                  stats);
                            });
    }
  }
}

TEST(GoldenTest, EmbeddedWideAtom) {
  // A 70-attribute relation: the chase tracks more positions than one
  // machine word.
  constexpr int kArity = 70;
  Schema s;
  std::vector<std::string> attrs;
  for (int i = 0; i < kArity; ++i) attrs.push_back("c" + std::to_string(i));
  s.Relation("w", attrs);
  Database db(s);
  for (int64_t row = 0; row < 12; ++row) {
    Tuple t;
    t.push_back(Value::Int(row % 3));
    for (int i = 1; i < kArity; ++i) t.push_back(Value::Int(row * 100 + i % 5));
    db.Insert("w", t);
  }
  AccessSchema access;
  access.AddEmbedded("w", {"c0"}, {"c1", "c69"}, 8);
  access.Add("w", {"c0"}, 8);
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  std::string text = "Q(x, y) :- w(k";
  for (int i = 1; i < kArity; ++i) {
    text += i == 1 ? ", x" : i == kArity - 1 ? ", y" : ", v" + std::to_string(i);
  }
  text += ")";
  Result<Cq> q = ParseCq(text, &s);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Result<EmbeddedCqAnalysis> analysis =
      EmbeddedCqAnalysis::Analyze(*q, s, access, {V("k")});
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->IsScaleIndependent());
  for (int64_t k = 0; k < 4; ++k) {
    ExpectGoldenAtThreads("embedded wide k=" + std::to_string(k), [&] {
      BoundedEvaluator eval(&db);
      BoundedEvalStats stats;
      stats.capture_ops = true;
      return AnswerRecord(
          eval.EvaluateEmbedded(*analysis, {{V("k"), Value::Int(k)}}, &stats),
          stats);
    });
  }
}

// ---------------------------------------------------------------------------
// The bounded-evaluation unit tests' `or` / `forall` databases.

TEST(GoldenTest, UniversalRule) {
  Schema s;
  s.Relation("R", {"A", "B"});
  s.Relation("S", {"A", "B", "C"});
  s.Relation("T", {"A", "B", "C"});
  Database db(s);
  db.Insert("R", Tuple{Value::Int(1), Value::Int(10)});
  db.Insert("R", Tuple{Value::Int(1), Value::Int(11)});
  db.Insert("S", Tuple{Value::Int(1), Value::Int(10), Value::Int(7)});
  db.Insert("T", Tuple{Value::Int(1), Value::Int(10), Value::Int(7)});
  db.Insert("S", Tuple{Value::Int(1), Value::Int(11), Value::Int(8)});
  AccessSchema access;
  access.Add("R", {"A"}, 10);
  access.Add("S", {"A", "B"}, 10);
  access.Add("T", {"A", "B", "C"}, 1);
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  FoQuery q = FQ(
      "Q(x, y) := R(x, y) and (forall z. S(x, y, z) implies T(x, y, z))", s);
  auto analysis = Analyze(q, s, access);
  for (uint64_t budget : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{3},
                          uint64_t{4}}) {
    exec::GovernorLimits limits;
    limits.fetch_budget = budget;
    ExpectPlainGolden("forall-unit", q, analysis, &db,
                      {{V("x"), Value::Int(1)}}, limits);
  }
}

TEST(GoldenTest, Disjunction) {
  Schema s;
  s.Relation("r", {"a", "b"});
  s.Relation("t", {"a", "b"});
  Database db(s);
  db.Insert("r", Tuple{Value::Int(1), Value::Int(10)});
  db.Insert("t", Tuple{Value::Int(1), Value::Int(20)});
  AccessSchema access;
  access.Add("r", {"a"}, 5);
  access.Add("t", {"a"}, 5);
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  FoQuery q = FQ("Q(x, y) := r(x, y) or t(x, y)", s);
  auto analysis = Analyze(q, s, access);
  for (uint64_t budget : {uint64_t{0}, uint64_t{1}, uint64_t{2}}) {
    exec::GovernorLimits limits;
    limits.fetch_budget = budget;
    ExpectPlainGolden("or-unit", q, analysis, &db, {{V("x"), Value::Int(1)}},
                      limits);
  }
}

// ---------------------------------------------------------------------------
// Plan-set lifecycle: compile on first sight, errors surface, DDL drops
// programs with their derivation.

TEST(CompiledPlanSetTest, CompilesOnFirstSightAndSurfacesErrors) {
  Social social(40);
  FoQuery q1 = FQ(kQ1, social.schema);
  auto analysis = Analyze(q1, social.schema, social.access);
  exec::CompiledPlanSet set;
  Result<std::shared_ptr<const exec::CompiledProgram>> first =
      set.Plain(q1, analysis, {V("p")});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(set.compiles(), 1u);
  Result<std::shared_ptr<const exec::CompiledProgram>> again =
      set.Plain(q1, analysis, {V("p")});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), first->get());
  EXPECT_EQ(set.compiles(), 1u);

  // A parameter set the analysis does not control: the error reaches the
  // caller on every request and nothing is kept.
  for (int i = 0; i < 2; ++i) {
    Result<std::shared_ptr<const exec::CompiledProgram>> bad =
        set.Plain(q1, analysis, {V("name")});
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(bad.status().message().find("not controlled"),
              std::string::npos);
  }
  std::string why;
  EXPECT_EQ(set.GetOrCompilePlain(exec::CompiledPlanSet::Mode::kAuto, q1,
                                  analysis, {V("name")}, &why),
            nullptr);
  EXPECT_NE(why.find("not controlled"), std::string::npos) << why;
  EXPECT_EQ(set.compiles(), 1u);
}

TEST(CompiledPlanSetTest, AnalysisCacheDropsCompiledPlansOnInvalidation) {
  Social social(40);
  FoQuery q1 = FQ(kQ1, social.schema);
  AnalysisCache cache;
  std::shared_ptr<exec::CompiledPlanSet> set1;
  Result<std::shared_ptr<const ControllabilityAnalysis>> a1 =
      cache.GetOrAnalyze(q1.body, "q1", social.schema, social.access, {},
                         &set1);
  ASSERT_TRUE(a1.ok());
  ASSERT_NE(set1, nullptr);
  Result<std::shared_ptr<const exec::CompiledProgram>> p1 =
      set1->Plain(q1, *a1, {V("p")});
  ASSERT_TRUE(p1.ok());

  // A cache hit hands back the same plan set (no recompilation).
  std::shared_ptr<exec::CompiledPlanSet> set_hit;
  ASSERT_TRUE(cache.GetOrAnalyze(q1.body, "q1", social.schema, social.access,
                                 {}, &set_hit)
                  .ok());
  EXPECT_EQ(set_hit.get(), set1.get());

  // DDL: the entry is dropped, and with it the attached bytecode. The next
  // analyze returns a fresh, empty plan set — the VM can never execute a
  // program lowered from the dropped derivation.
  cache.Invalidate();
  std::shared_ptr<exec::CompiledPlanSet> set2;
  Result<std::shared_ptr<const ControllabilityAnalysis>> a2 =
      cache.GetOrAnalyze(q1.body, "q1", social.schema, social.access, {},
                         &set2);
  ASSERT_TRUE(a2.ok());
  ASSERT_NE(set2, nullptr);
  EXPECT_NE(set2.get(), set1.get());
  EXPECT_EQ(set2->compiles(), 0u);
  Result<std::shared_ptr<const exec::CompiledProgram>> p2 =
      set2->Plain(q1, *a2, {V("p")});
  ASSERT_TRUE(p2.ok());
  EXPECT_NE(p2->get(), p1->get());  // recompiled against the fresh derivation
}

std::string Exec(Shell* shell, const std::string& line) {
  Result<std::string> out = shell->Execute(line);
  SI_CHECK_MSG(out.ok(), (line + ": " + out.status().message()).c_str());
  return *std::move(out);
}

TEST(CompiledPlanSetTest, ShellRecompilesAfterMidSessionDdl) {
  // `access` DDL between two evals must invalidate the bytecode with the
  // derivation: the second eval recompiles against the new bounds.
  Shell shell;
  Exec(&shell, "schema relation e(a, b)");
  Exec(&shell, "access access e(a) N=10");
  Exec(&shell, "row e 1,10");
  Exec(&shell, "row e 1,11");
  const std::string first = Exec(&shell, "eval x=1 Q(x, y) := e(x, y)");
  EXPECT_NE(first.find("(2 answers"), std::string::npos) << first;
  Exec(&shell, "access access e(a) N=5");
  const std::string second = Exec(&shell, "eval x=1 Q(x, y) := e(x, y)");
  EXPECT_NE(second.find("(2 answers"), std::string::npos) << second;
  EXPECT_EQ(shell.mutable_metrics()->GetCounter("exec.compiled_hits").value(),
            2u);
  // The disassembly carries the *new* static bound: recompiled, not stale.
  const std::string explained = Exec(&shell, "explain x=1 Q(x, y) := e(x, y)");
  EXPECT_NE(explained.find("compiled:"), std::string::npos) << explained;
  EXPECT_NE(explained.find("static_bound=5"), std::string::npos) << explained;
}

TEST(CompiledPlanSetTest, ShellRunsOrAndForallShapesOnTheVm) {
  Shell shell;
  Exec(&shell, "schema relation r(a, b)");
  Exec(&shell, "schema relation t(a, b)");
  Exec(&shell, "access access r(a) N=5");
  Exec(&shell, "access access t(a) N=5");
  Exec(&shell, "row r 1,10");
  Exec(&shell, "row t 1,20");
  Exec(&shell, "row t 10,1");
  const std::string out = Exec(&shell, "eval x=1 Q(x, y) := r(x, y) or t(x, y)");
  EXPECT_NE(out.find("(2 answers"), std::string::npos) << out;
  const std::string all = Exec(
      &shell, "eval x=1 Q(x) := forall y. r(x, y) implies t(y, x)");
  EXPECT_NE(all.find("(1 answers"), std::string::npos) << all;
  EXPECT_EQ(shell.mutable_metrics()->GetCounter("exec.compiled_hits").value(),
            2u);
  const std::string explained =
      Exec(&shell, "explain x=1 Q(x, y) := r(x, y) or t(x, y)");
  EXPECT_NE(explained.find("BLOCK"), std::string::npos) << explained;
}

}  // namespace
}  // namespace scalein
