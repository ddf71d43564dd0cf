// Morsel-parallel execution tests: the worker pool's scheduling contract,
// sharded-index/plain-index equivalence, and the headline determinism
// property — batch bounded evaluation produces byte-identical answers AND
// byte-identical access accounting at every thread count, so Theorem 4.2
// verdicts never depend on parallelism.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "core/embedded_controllability.h"
#include "par/worker_pool.h"
#include "query/parser.h"
#include "util/failpoint.h"
#include "workload/social_gen.h"

namespace scalein {
namespace {

Variable V(const char* name) { return Variable::Named(name); }

FoQuery FQ(const char* text, const Schema& s) {
  Result<FoQuery> q = ParseFoQuery(text, &s);
  SI_CHECK_MSG(q.ok(), q.status().message().c_str());
  return *std::move(q);
}

struct Social {
  SocialConfig config;
  Schema schema = SocialSchema(false);
  Database db{Schema{}};
  AccessSchema access;

  explicit Social(uint64_t persons) {
    config.num_persons = persons;
    config.max_friends_per_person = 10;
    config.num_restaurants = 40;
    config.seed = 99;
    db = GenerateSocial(config);
    access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());
  }
};

/// Restores the global pool to sequential when a test scope ends, so thread
/// counts never leak between tests.
struct ScopedThreads {
  explicit ScopedThreads(size_t n) { par::WorkerPool::Global().Resize(n); }
  ~ScopedThreads() { par::WorkerPool::Global().Resize(1); }
};

TEST(WorkerPoolTest, ExecutesEveryTaskExactlyOnce) {
  par::WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  constexpr size_t kTasks = 1000;
  // Distinct indices → no two lanes touch the same slot; ParallelFor's
  // completion barrier publishes the writes back to this thread.
  std::vector<int> hits(kTasks, 0);
  pool.ParallelFor(kTasks, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i], 1) << i;
  EXPECT_EQ(pool.tasks_executed(), kTasks);
  EXPECT_EQ(pool.parallel_for_calls(), 1u);
}

TEST(WorkerPoolTest, BackToBackJobsNeverRunAStaleClosure) {
  // Workers wake for the first job and then sleep 20 ms before draining it
  // (pool_wake). The submitter runs the whole first job alone in about
  // 8 ms and starts the second, whose tasks take 5 ms each. A worker that
  // then drained with the first job's closure would run it on the second
  // job's indices: first[i] twice, second[i] never.
  ASSERT_TRUE(util::Failpoints::Global().Configure("pool_wake=delay(20ms)").ok());
  struct Clear {
    ~Clear() { util::Failpoints::Global().Clear(); }
  } clear;
  par::WorkerPool pool(4);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::atomic<int>> first(8), second(8);
    const std::function<void(size_t)> run_first = [&](size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++first[i];
    };
    const std::function<void(size_t)> run_second = [&](size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++second[i];
    };
    pool.ParallelFor(first.size(), run_first);
    pool.ParallelFor(second.size(), run_second);
    for (size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], 1) << i;
    for (size_t i = 0; i < second.size(); ++i) EXPECT_EQ(second[i], 1) << i;
  }
}

TEST(WorkerPoolTest, SequentialPoolRunsInline) {
  par::WorkerPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  par::WorkerPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    // A task that itself fans out must not deadlock the fixed pool.
    pool.ParallelFor(8, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(WorkerPoolTest, CurrentLaneIsMinusOneOutsideAndBoundedInside) {
  EXPECT_EQ(par::CurrentLane(), -1);
  par::WorkerPool pool(3);
  std::atomic<bool> ok{true};
  pool.ParallelFor(64, [&](size_t) {
    const int lane = par::CurrentLane();
    if (lane < 0 || lane >= 3) ok.store(false);
  });
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(par::CurrentLane(), -1);
}

TEST(WorkerPoolTest, ResizeChangesLaneCount) {
  par::WorkerPool pool(1);
  pool.Resize(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::atomic<int> n{0};
  pool.ParallelFor(100, [&](size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 100);
  pool.Resize(1);
  EXPECT_EQ(pool.threads(), 1u);
}

TEST(WorkerPoolTest, SplitRangesPartitionsExactly) {
  for (size_t total : {0u, 1u, 7u, 64u, 1000u}) {
    for (size_t pieces : {1u, 3u, 8u, 2000u}) {
      auto ranges = par::SplitRanges(total, pieces);
      size_t covered = 0;
      size_t expect_begin = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, expect_begin);
        EXPECT_LT(begin, end);
        covered += end - begin;
        expect_begin = end;
      }
      EXPECT_EQ(covered, total) << total << "/" << pieces;
      EXPECT_LE(ranges.size(), pieces);
    }
  }
}

TEST(ShardedIndexTest, LookupMatchesPlainIndex) {
  ScopedThreads threads(4);
  Relation r(2);
  for (int64_t i = 0; i < 500; ++i) {
    r.Insert(Tuple{Value::Int(i % 37), Value::Int(i)});
  }
  r.Shard(4);
  const HashIndex& plain = r.EnsureIndex({0});
  const ShardedHashIndex& sharded = r.EnsureShardedIndex({0});
  EXPECT_EQ(sharded.NumKeys(), plain.NumKeys());
  for (int64_t k = -2; k < 40; ++k) {
    Tuple key{Value::Int(k)};
    const std::vector<uint32_t>* p = plain.Lookup(key);
    const std::vector<uint32_t>* s = sharded.Lookup(key);
    if (p == nullptr) {
      EXPECT_EQ(s, nullptr) << k;
      continue;
    }
    ASSERT_NE(s, nullptr) << k;
    std::set<uint32_t> ps(p->begin(), p->end());
    std::set<uint32_t> ss(s->begin(), s->end());
    EXPECT_EQ(ps, ss) << k;
  }
}

TEST(ShardedIndexTest, MaintainedAcrossInsertAndRemove) {
  Relation r(2);
  r.Shard(3);
  for (int64_t i = 0; i < 100; ++i) {
    r.Insert(Tuple{Value::Int(i % 10), Value::Int(i)});
  }
  r.EnsureShardedIndex({0});  // exists before the mutations below
  for (int64_t i = 0; i < 100; i += 2) {
    r.Remove(Tuple{Value::Int(i % 10), Value::Int(i)});
  }
  for (int64_t i = 100; i < 120; ++i) {
    r.Insert(Tuple{Value::Int(i % 10), Value::Int(i)});
  }
  const ShardedHashIndex& sharded = *r.FindShardedIndex({0});
  const HashIndex& plain = r.EnsureIndex({0});
  for (int64_t k = 0; k < 10; ++k) {
    Tuple key{Value::Int(k)};
    const std::vector<uint32_t>* p = plain.Lookup(key);
    const std::vector<uint32_t>* s = sharded.Lookup(key);
    ASSERT_NE(p, nullptr);
    ASSERT_NE(s, nullptr);
    std::set<uint32_t> ps(p->begin(), p->end());
    std::set<uint32_t> ss(s->begin(), s->end());
    EXPECT_EQ(ps, ss) << k;
  }
}

TEST(ShardedIndexTest, ShardedProbesAnswerBoundedQ1) {
  // Same answers with sharding enabled: the metered probe path routes to the
  // sharded index when the relation is sharded, and results are identical.
  Social social(120);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  Result<ControllabilityAnalysis> analysis =
      ControllabilityAnalysis::Analyze(q1.body, social.schema, social.access);
  ASSERT_TRUE(analysis.ok());

  BoundedEvaluator bounded(&social.db);
  std::vector<AnswerSet> unsharded;
  std::vector<uint64_t> unsharded_fetches;
  for (int64_t p = 0; p < 20; ++p) {
    BoundedEvalStats stats;
    Result<AnswerSet> r = bounded.Evaluate(
        q1, *analysis, {{V("p"), Value::Int(p)}}, &stats);
    ASSERT_TRUE(r.ok());
    unsharded.push_back(*std::move(r));
    unsharded_fetches.push_back(stats.base_tuples_fetched);
  }

  social.db.relation("friend").Shard(4);
  social.db.relation("person").Shard(4);
  for (int64_t p = 0; p < 20; ++p) {
    BoundedEvalStats stats;
    Result<AnswerSet> r = bounded.Evaluate(
        q1, *analysis, {{V("p"), Value::Int(p)}}, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, unsharded[static_cast<size_t>(p)]) << p;
    EXPECT_EQ(stats.base_tuples_fetched,
              unsharded_fetches[static_cast<size_t>(p)])
        << p;
  }
}

/// The determinism contract the benchmarks and the TSan CI lane pin down:
/// answers and accounting are identical at 1 and 4 threads.
TEST(ParallelBatchTest, BatchEvalIdenticalAcrossThreadCounts) {
  Social social(300);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  Result<ControllabilityAnalysis> analysis =
      ControllabilityAnalysis::Analyze(q1.body, social.schema, social.access);
  ASSERT_TRUE(analysis.ok());
  for (const std::string& rel : {std::string("friend"), std::string("person"),
                                 std::string("restr")}) {
    social.db.relation(rel).Shard(4);
  }

  std::vector<Binding> batch;
  for (int64_t p = 0; p < 64; ++p) {
    batch.push_back({{V("p"), Value::Int(p)}});
  }
  BoundedEvaluator bounded(&social.db);

  // Reference: a plain sequential loop of Evaluate calls.
  std::vector<AnswerSet> expected;
  BoundedEvalStats expected_stats;
  for (const Binding& params : batch) {
    Result<AnswerSet> r =
        bounded.Evaluate(q1, *analysis, params, &expected_stats);
    ASSERT_TRUE(r.ok());
    expected.push_back(*std::move(r));
  }

  for (size_t threads : {1u, 4u}) {
    ScopedThreads scoped(threads);
    BoundedEvalStats stats;
    std::vector<Result<AnswerSet>> results =
        bounded.EvaluateBatch(q1, *analysis, batch, &stats);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << i;
      EXPECT_EQ(*results[i], expected[i]) << "threads=" << threads;
    }
    EXPECT_EQ(stats.base_tuples_fetched, expected_stats.base_tuples_fetched)
        << "threads=" << threads;
    EXPECT_EQ(stats.index_lookups, expected_stats.index_lookups)
        << "threads=" << threads;
    EXPECT_EQ(stats.fetched_by_relation, expected_stats.fetched_by_relation)
        << "threads=" << threads;
  }
}

TEST(ParallelBatchTest, EmbeddedBatchIdenticalAcrossThreadCounts) {
  SocialConfig config;
  config.num_persons = 120;
  config.max_friends_per_person = 8;
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

  std::vector<Binding> batch;
  for (int64_t p = 0; p < 40; ++p) {
    batch.push_back({{V("p"), Value::Int(p)}, {V("yy"), Value::Int(0)}});
  }
  BoundedEvaluator bounded(&db);

  std::vector<AnswerSet> expected;
  BoundedEvalStats expected_stats;
  for (const Binding& params : batch) {
    Result<AnswerSet> r =
        bounded.EvaluateEmbedded(*analysis, params, &expected_stats);
    ASSERT_TRUE(r.ok());
    expected.push_back(*std::move(r));
  }

  for (size_t threads : {1u, 4u}) {
    ScopedThreads scoped(threads);
    BoundedEvalStats stats;
    std::vector<Result<AnswerSet>> results =
        bounded.EvaluateEmbeddedBatch(*analysis, batch, &stats);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << i;
      EXPECT_EQ(*results[i], expected[i]) << "threads=" << threads;
    }
    EXPECT_EQ(stats.base_tuples_fetched, expected_stats.base_tuples_fetched)
        << "threads=" << threads;
    EXPECT_EQ(stats.index_lookups, expected_stats.index_lookups)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace scalein
