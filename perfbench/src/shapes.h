// Query mixes of the read workloads, the seeded request streams drawn from
// them, and the reference answers the correctness gate compares against.
#ifndef PERFBENCH_SHAPES_H_
#define PERFBENCH_SHAPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/answer_set.h"
#include "query/cq.h"
#include "relational/database.h"
#include "util.h"
#include "util/rng.h"
#include "workload/social_gen.h"

namespace perfbench {

/// One query text the server is sent, with its parameter and the reference
/// definition of its answers.
struct Shape {
  std::string fo;                 ///< FO query text (after the binding)
  std::string param;              ///< the one parameter variable
  bool city_param = false;        ///< parameter ranges over cities, not ids
  std::vector<std::string> ref;   ///< CQs whose union is the answer set
  bool forall_nyc = false;        ///< ref[0] answers, filtered by Q's forall
};

/// One request: a shape and a parameter value.
struct Request {
  uint32_t shape = 0;
  int64_t person = 0;  ///< parameter when !city_param
  uint32_t city = 0;   ///< parameter when city_param
};

/// A read workload's query mix and parameter distribution: shapes drawn
/// uniformly, persons Zipf-skewed (kZipf).
class QueryMix {
 public:
  /// `name` is point, fanout or cold_plans.
  QueryMix(const std::string& name, const scalein::SocialConfig& cfg);

  const std::vector<Shape>& shapes() const { return shapes_; }
  Request Draw(scalein::Rng* rng) const;
  /// "eval [@tag ]<param>=<value> <fo>"
  std::string Line(const Request& r, const std::string& tag) const;
  /// The rendered parameter binding, "p=17".
  std::string Binding(const Request& r) const;

 private:
  uint64_t PersonId(uint64_t rank) const;

  std::vector<Shape> shapes_;
  uint64_t persons_ = 1;
  uint64_t cities_ = 1;
  uint64_t multiplier_ = 1;  ///< rank -> id permutation (coprime to persons_)
};

std::string CityName(uint32_t city);

/// Reference answers over an in-process copy of the generated database,
/// by the backtracking CQ evaluator (never the bounded executors).
class Reference {
 public:
  Reference(scalein::Database* db, const QueryMix& mix);
  scalein::AnswerSet Answers(const QueryMix& mix, const Request& r) const;

 private:
  scalein::Database* db_;
  std::vector<std::vector<scalein::Cq>> cqs_;  ///< per shape
  scalein::Cq friends_of_;                     ///< B(a, b) :- friend(a, b)
  scalein::Cq in_nyc_;                         ///< C(b) :- person(b, n, NYC)
};

}  // namespace perfbench

#endif  // PERFBENCH_SHAPES_H_
