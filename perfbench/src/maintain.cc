// The maintenance phase of point's traced run: batches of visit insertions
// and deletions applied to one in-process Database, with §5 Q2 maintained
// for a set of tracked persons (IncrementalMaintainer's phase API around
// ApplyUpdate), the Example 6.3 views maintained by
// ViewExecutor::ApplyBaseUpdate, and bounded Q1 reads interleaved.
// Single-threaded: the server has no write path. It yields per-layer
// figures only; perfbench/README.md says why it is not a workload.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "bench.h"
#include "core/access_schema.h"
#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "dataset.h"
#include "eval/cq_evaluator.h"
#include "incremental/delta_rules.h"
#include "incremental/maintainer.h"
#include "io/catalog.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "views/view_exec.h"

namespace perfbench {

namespace {

using scalein::obs::ScopedSpan;
using scalein::obs::Tracer;

constexpr const char* kCategory = "perfbench";
// Batch shape; perfbench/README.md gives the reason for each value.
constexpr uint64_t kBatchInserts = 10;
constexpr uint64_t kBatchDeletes = 10;
constexpr uint64_t kReadsPerBatch = 4;
constexpr uint64_t kTrackedPersons = 16;
constexpr double kMaintainWarmupS = 1.0;
constexpr double kMaintainTraceS = 4.0;
constexpr const char* kQ1 =
    "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")";
constexpr const char* kQ1Cq =
    "Q1(p, name) :- friend(p, id), person(id, name, \"NYC\")";
constexpr const char* kQ2 =
    "Q2(p, rn) :- friend(p, id), visit(id, rid), person(id, pn, \"NYC\"), "
    "restr(rid, rn, \"NYC\", \"A\")";

template <typename T>
T Must(scalein::Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return *std::move(r);
}

void MustOk(const scalein::Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

scalein::ViewSet ExampleViews(const scalein::Schema& schema) {
  scalein::ViewSet views;
  views.Define("V1(rid, rn, rating) :- restr(rid, rn, \"NYC\", rating)",
               schema)
      .Define("V2(id, rid) :- visit(id, rid), person(id, pn, \"NYC\")",
              schema);
  return views;
}

// Everything the workload keeps in memory once set up.
struct State {
  scalein::SocialConfig cfg;
  scalein::Schema schema = scalein::SocialSchema(false);
  scalein::AccessSchema access;
  std::unique_ptr<scalein::Database> db;
  scalein::Cq q2;
  std::unique_ptr<scalein::IncrementalMaintainer> maintainer;
  std::vector<scalein::Binding> tracked;  ///< Q2 parameters
  std::vector<scalein::AnswerSet> answers;
  std::vector<std::vector<int64_t>> friends;  ///< of each tracked person
  std::unique_ptr<scalein::ViewExecutor> views;
  scalein::FoQuery q1;
  std::unique_ptr<scalein::ControllabilityAnalysis> q1_analysis;
  double q1_bound = -1;
};

// Load the generated CSVs, build indexes, the maintainers and the views.
std::unique_ptr<State> SetUp(const RunContext& ctx,
                             const scalein::SocialConfig& cfg) {
  auto st = std::make_unique<State>();
  st->cfg = cfg;
  st->access = scalein::SocialAccessSchema(cfg);
  st->access.Add("visit", {"id"}, VisitCap(cfg));
  st->db = std::make_unique<scalein::Database>(st->schema);
  for (const char* rel : {"person", "friend", "restr", "visit"}) {
    const std::string csv = Must(
        scalein::ReadFileToString(ctx.run_dir + "/" + rel + ".csv"), rel);
    MustOk(scalein::LoadRelationCsv(st->db.get(), rel, csv), rel);
  }
  MustOk(st->access.BuildIndexes(st->db.get(), st->schema), "indexes");
  st->q2 = Must(scalein::ParseCq(kQ2, &st->schema), "Q2");
  const scalein::Variable p = scalein::Variable::Named("p");
  st->maintainer = std::make_unique<scalein::IncrementalMaintainer>(Must(
      scalein::IncrementalMaintainer::Create(st->q2, st->schema, st->access,
                                             {p}),
      "Q2 maintainer"));
  if (!st->maintainer->SupportsInsertions("visit") ||
      !st->maintainer->SupportsDeletions()) {
    Die("Q2 maintenance of visit updates is not bounded");
  }
  scalein::Rng rng(cfg.seed + 5);
  scalein::CqEvaluator eval(st->db.get());
  const scalein::Cq friends =
      Must(scalein::ParseCq("F(p, id) :- friend(p, id)", &st->schema), "F");
  // Tracked persons have a middling friend count, so the maintenance work
  // per batch does not hinge on which persons a seed happens to draw.
  const uint64_t k = kTrackedPersons;
  const size_t lo = cfg.max_friends_per_person * 2 / 5;
  const size_t hi = cfg.max_friends_per_person * 3 / 5;
  for (uint64_t tries = 0; st->tracked.size() < k; ++tries) {
    if (tries > 100 * k) Die("too few persons with a middling friend count");
    scalein::Binding b{{p, scalein::Value::Int(static_cast<int64_t>(
                               rng.Uniform(cfg.num_persons)))}};
    std::vector<int64_t> ids;
    for (const scalein::Tuple& t : eval.Evaluate(friends, b)) {
      ids.push_back(t[0].AsInt());
    }
    if (ids.size() < lo || ids.size() > hi) continue;
    st->answers.push_back(
        Must(st->maintainer->InitialAnswers(st->db.get(), b), "Q2 initial"));
    st->friends.push_back(std::move(ids));
    st->tracked.push_back(std::move(b));
  }
  st->views = std::make_unique<scalein::ViewExecutor>(
      Must(scalein::ViewExecutor::Create(*st->db, st->schema,
                                         ExampleViews(st->schema),
                                         st->access),
           "views"));
  st->q1 = Must(scalein::ParseFoQuery(kQ1, &st->schema), "Q1");
  st->q1_analysis = std::make_unique<scalein::ControllabilityAnalysis>(
      Must(scalein::ControllabilityAnalysis::Analyze(st->q1.body, st->schema,
                                                     st->access),
           "Q1 analysis"));
  const scalein::ControlOption* opt =
      st->q1_analysis->BestOptionFor(scalein::VarSet{p});
  if (opt == nullptr) Die("Q1 is not controlled by p");
  st->q1_bound = opt->fetch_bound;
  return st;
}

// A batch of visit insertions (half aimed at friends of tracked persons, so
// the maintained answers move) and deletions of existing visits.
scalein::Update MakeBatch(const State& st, uint64_t inserts, uint64_t deletes,
                          scalein::Rng* rng) {
  scalein::Update u;
  const scalein::Relation& visit = st.db->relation("visit");
  std::set<scalein::Tuple> seen;
  while (u.insertions["visit"].size() < inserts) {
    int64_t id = static_cast<int64_t>(rng->Uniform(st.cfg.num_persons));
    const auto& fr = st.friends[rng->Uniform(st.friends.size())];
    if (rng->Bernoulli(0.5) && !fr.empty()) id = fr[rng->Uniform(fr.size())];
    scalein::Tuple t{scalein::Value::Int(id),
                     scalein::Value::Int(static_cast<int64_t>(
                         rng->Uniform(st.cfg.num_restaurants)))};
    if (!visit.Contains(t) && seen.insert(t).second) {
      u.AddInsertion("visit", std::move(t));
    }
  }
  while (u.deletions["visit"].size() < deletes && visit.size() > deletes) {
    scalein::TupleView row = visit.TupleAt(rng->Uniform(visit.size()));
    scalein::Tuple t(row.begin(), row.end());
    if (seen.insert(t).second) u.AddDeletion("visit", std::move(t));
  }
  return u;
}

struct Phases {
  uint64_t batches = 0, reads = 0, failed = 0, tuples = 0, fetched = 0;
  uint64_t incremental = 0, violations = 0;
};

// Runs batches (with their reads) for `seconds`; spans go to `tracer` when
// it is non-null.
void RunBatches(State* st, uint64_t seed, double seconds, Tracer* tracer,
                Phases* ph) {
  scalein::Rng rng(seed);
  const scalein::Variable p = scalein::Variable::Named("p");
  const uint64_t stop = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < stop) {
    const scalein::Update u =
        MakeBatch(*st, kBatchInserts, kBatchDeletes, &rng);
    const size_t k = st->tracked.size();
    std::vector<scalein::AnswerSet> candidates(k);
    scalein::BoundedEvalStats stats;
    scalein::BoundedEvalStats view_stats;
    bool incremental = false;
    bool ok = true;
    {
      ScopedSpan span(tracer, "incremental.collect", kCategory);
      for (size_t i = 0; i < k && ok; ++i) {
        ok = st->maintainer
                 ->CollectDeletionCandidates(st->db.get(), u, st->tracked[i],
                                             &candidates[i], &stats)
                 .ok();
      }
    }
    {
      ScopedSpan span(tracer, "relational.apply", kCategory);
      if (ok) scalein::ApplyUpdate(st->db.get(), u);
    }
    {
      ScopedSpan span(tracer, "incremental.integrate", kCategory);
      for (size_t i = 0; i < k && ok; ++i) {
        ok = st->maintainer
                 ->IntegrateInsertions(st->db.get(), u, st->tracked[i],
                                       &st->answers[i], &stats)
                 .ok() &&
             st->maintainer
                 ->RecheckCandidates(st->db.get(), candidates[i],
                                     st->tracked[i], &st->answers[i], &stats)
                 .ok();
      }
    }
    {
      ScopedSpan span(tracer, "views.apply", kCategory);
      ok = ok &&
           st->views->ApplyBaseUpdate(u, &view_stats, &incremental).ok();
    }
    ++ph->batches;
    if (!ok) {
      // A failed batch leaves the maintained state unusable: stop here.
      ++ph->failed;
      std::printf("maintain: batch %llu failed\n",
                  static_cast<unsigned long long>(ph->batches));
      return;
    }
    ph->tuples += u.TotalTuples();
    ph->fetched += stats.base_tuples_fetched + view_stats.base_tuples_fetched;
    ph->incremental += incremental ? 1 : 0;

    for (uint64_t r = 0; r < kReadsPerBatch; ++r) {
      scalein::Binding b{{p, scalein::Value::Int(static_cast<int64_t>(
                                 rng.Zipf(st->cfg.num_persons, kZipf)))}};
      scalein::BoundedEvaluator eval(st->db.get());
      scalein::BoundedEvalStats rs;
      bool read_ok;
      {
        ScopedSpan span(tracer, "maintain.read", kCategory);
        read_ok = eval.Evaluate(st->q1, *st->q1_analysis, b, &rs).ok();
      }
      ++ph->reads;
      if (!read_ok) {
        ++ph->failed;
        continue;
      }
      if (static_cast<double>(rs.base_tuples_fetched) > st->q1_bound) {
        ++ph->violations;
      }
    }
  }
}

// Maintained answers and view extents against a recomputation, plus a
// sample of Q1 reads against the CQ evaluator.
uint64_t Verify(State* st, uint64_t seed) {
  uint64_t mismatches = 0;
  scalein::CqEvaluator eval(st->db.get());
  for (size_t i = 0; i < st->tracked.size(); ++i) {
    if (eval.EvaluateFull(st->q2, st->tracked[i]) != st->answers[i]) {
      ++mismatches;
      std::fprintf(stderr, "perfbench: maintained Q2 answers differ from a "
                           "recomputation\n");
    }
  }
  const scalein::ViewSet views = ExampleViews(st->schema);
  for (const scalein::ViewDef& v : views.views()) {
    std::set<scalein::Tuple> expect;
    for (const scalein::Tuple& t : eval.EvaluateFull(v.definition)) {
      expect.insert(t);
    }
    std::set<scalein::Tuple> got;
    const scalein::Relation& rel = st->views->extended_db().relation(v.name);
    for (size_t r = 0; r < rel.size(); ++r) {
      scalein::TupleView row = rel.TupleAt(r);
      got.emplace(row.begin(), row.end());
    }
    if (got != expect) {
      ++mismatches;
      std::fprintf(stderr, "perfbench: view %s extent differs from a "
                           "recomputation (%zu vs %zu tuples)\n",
                   v.name.c_str(), got.size(), expect.size());
    }
  }
  const scalein::Cq q1 = Must(scalein::ParseCq(kQ1Cq, &st->schema), "Q1 CQ");
  scalein::Rng rng(seed);
  const scalein::Variable p = scalein::Variable::Named("p");
  for (int i = 0; i < 64; ++i) {
    scalein::Binding b{{p, scalein::Value::Int(static_cast<int64_t>(
                               rng.Uniform(st->cfg.num_persons)))}};
    scalein::BoundedEvaluator bounded(st->db.get());
    scalein::Result<scalein::AnswerSet> got =
        bounded.Evaluate(st->q1, *st->q1_analysis, b);
    if (!got.ok() || *got != eval.Evaluate(q1, b)) ++mismatches;
  }
  return mismatches;
}

}  // namespace

bool RunMaintainTrace(const RunContext& ctx, RunOutput* out) {
  const scalein::SocialConfig cfg = SocialConfigFor(ctx.seed);
  {
    scalein::Database generated = scalein::GenerateSocial(cfg);
    (void)WriteCatalog(generated, cfg, /*with_visits=*/true, ctx.run_dir);
    // The visit(id) access statement must hold on the generated data.
    std::map<int64_t, uint64_t> per_person;
    const scalein::Relation& visit = generated.relation("visit");
    uint64_t most = 0;
    for (size_t r = 0; r < visit.size(); ++r) {
      most = std::max(most, ++per_person[visit.TupleAt(r)[0].AsInt()]);
    }
    if (most > VisitCap(cfg)) {
      Die("generated visits exceed the declared visit(id) cap");
    }
  }
  std::unique_ptr<State> st = SetUp(ctx, cfg);
  Phases warm;
  RunBatches(st.get(), ctx.seed + 1, kMaintainWarmupS, nullptr, &warm);
  Tracer tracer;
  Phases ph;
  RunBatches(st.get(), ctx.seed + 2, kMaintainTraceS, &tracer, &ph);
  const uint64_t mismatches = Verify(st.get(), ctx.seed + 3);
  const uint64_t violations = warm.violations + ph.violations;
  std::printf("maintain: batches=%llu reads=%llu failed=%llu tuples=%llu "
              "incremental=%llu bound_violations=%llu mismatches=%llu\n",
              static_cast<unsigned long long>(ph.batches),
              static_cast<unsigned long long>(ph.reads),
              static_cast<unsigned long long>(ph.failed),
              static_cast<unsigned long long>(ph.tuples),
              static_cast<unsigned long long>(ph.incremental),
              static_cast<unsigned long long>(violations),
              static_cast<unsigned long long>(mismatches));
  out->attempted += ph.batches + ph.reads;
  out->failed += ph.failed;

  const std::vector<scalein::obs::TraceEvent> events = tracer.events();
  auto span_ms = [&](const std::string& name) {
    std::vector<double> v;
    for (const auto& e : events) {
      if (e.category == kCategory && e.name == name) {
        v.push_back(static_cast<double>(e.duration_ns) / 1e6);
      }
    }
    return v;
  };
  const std::vector<double> collect = span_ms("incremental.collect");
  const std::vector<double> integrate = span_ms("incremental.integrate");
  std::vector<double> maintain;
  for (size_t i = 0; i < std::min(collect.size(), integrate.size()); ++i) {
    maintain.push_back(collect[i] + integrate[i]);
  }
  MetricSink& m = out->metrics;
  AddPercentiles(&m, "relational.apply_ms", span_ms("relational.apply"), "ms");
  AddPercentiles(&m, "incremental.maintain_ms", maintain, "ms");
  AddPercentiles(&m, "views.apply_ms", span_ms("views.apply"), "ms");
  AddPercentiles(&m, "maintain.read_ms", span_ms("maintain.read"), "ms");
  m.Add("maintain.batches", static_cast<double>(ph.batches), "count");
  m.Add("incremental.fetched_per_tuple",
        static_cast<double>(ph.fetched) /
            static_cast<double>(std::max<uint64_t>(ph.tuples, 1)),
        "tuples");
  m.Add("views.incremental_ratio",
        static_cast<double>(ph.incremental) /
            static_cast<double>(std::max<uint64_t>(ph.batches, 1)),
        "ratio");
  const std::string trace_path = ctx.run_dir + "/maintain.trace.json";
  if (FILE* f = std::fopen(trace_path.c_str(), "w")) {
    const std::string json = tracer.ToChromeTraceJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  return mismatches == 0 && violations == 0 && ph.failed == 0;
}

}  // namespace perfbench
