#include "shapes.h"

#include <numeric>

#include "bench.h"
#include "eval/cq_evaluator.h"
#include "query/parser.h"
#include "util/strings.h"

namespace perfbench {

namespace {

using scalein::StrFormat;

Shape PersonShape(std::string fo, std::vector<std::string> ref) {
  Shape s;
  s.fo = std::move(fo);
  s.param = "p";
  s.ref = std::move(ref);
  return s;
}

// The everyday requests: small bounds (<= 100), a handful of texts, so every
// request after warm-up hits the analysis cache and the compiled program.
std::vector<Shape> PointShapes() {
  std::vector<Shape> out;
  out.push_back(PersonShape("F(p, id) := friend(p, id)",
                            {"F(p, id) :- friend(p, id)"}));
  out.push_back(PersonShape(
      "Q(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      {"Q(p, name) :- friend(p, id), person(id, name, \"NYC\")"}));
  out.push_back(PersonShape(
      "P(p, name, city) := person(p, name, city)",
      {"P(p, name, city) :- person(p, name, city)"}));
  out.push_back(PersonShape(
      "C(p, id, city) := exists n. friend(p, id) and person(id, n, city)",
      {"C(p, id, city) :- friend(p, id), person(id, n, city)"}));
  Shape r;
  r.fo = "R(c, rid, name) := exists rt. restr(rid, name, c, rt)";
  r.param = "c";
  r.city_param = true;
  r.ref = {"R(c, rid, name) :- restr(rid, name, c, rt)"};
  out.push_back(r);
  return out;
}

// Heavy bounded joins: two friend hops under the friend cap (bounds in the
// thousands), plus `or` and `forall` shapes.
std::vector<Shape> FanoutShapes() {
  std::vector<Shape> out;
  out.push_back(PersonShape(
      "H(p, name) := exists a. exists b. friend(p, a) and friend(a, b) and "
      "person(b, name, \"NYC\")",
      {"H(p, name) :- friend(p, a), friend(a, b), person(b, name, \"NYC\")"}));
  out.push_back(PersonShape(
      "G(p, b) := exists a. friend(p, a) and friend(a, b)",
      {"G(p, b) :- friend(p, a), friend(a, b)"}));
  out.push_back(PersonShape(
      "O(p, x) := friend(p, x) or (exists a. friend(p, a) and friend(a, x))",
      {"O(p, x) :- friend(p, x)", "O(p, x) :- friend(p, a), friend(a, x)"}));
  Shape forall = PersonShape(
      "A(p, a) := friend(p, a) and forall b. (friend(a, b) implies exists n. "
      "person(b, n, \"NYC\"))",
      {"A(p, a) :- friend(p, a)"});
  forall.forall_nyc = true;
  out.push_back(forall);
  return out;
}

// Many distinct texts (varied head names, constants and conjunct order)
// drawn uniformly: the working set, 8 x the 64-entry analysis cache,
// outgrows it.
constexpr uint64_t kColdPlanTexts = 512;

std::vector<Shape> ColdPlanShapes(uint64_t texts, uint64_t cities) {
  static const char* kRatings[] = {"A", "B", "C"};
  std::vector<Shape> out;
  for (uint64_t i = 0; i < texts; ++i) {
    const std::string h =
        StrFormat("K%llu", static_cast<unsigned long long>(i));
    const std::string city = CityName(static_cast<uint32_t>((i / 8) % cities));
    const bool swap = (i / 4) % 2 == 1;
    switch (i % 4) {
      case 0: {
        const std::string f = "friend(p, id)";
        const std::string q = "person(id, name, \"" + city + "\")";
        out.push_back(PersonShape(
            h + "(p, name) := exists id. " + (swap ? q + " and " + f
                                                   : f + " and " + q),
            {h + "(p, name) :- " + f + ", " + q}));
        break;
      }
      case 1: {
        const std::string f = "friend(p, id)";
        const std::string q = "person(id, n, \"" + city + "\")";
        out.push_back(PersonShape(
            h + "(p, id, n) := " + (swap ? q + " and " + f : f + " and " + q),
            {h + "(p, id, n) :- " + f + ", " + q}));
        break;
      }
      case 2: {
        Shape s;
        const std::string rating = kRatings[(i / 8) % 3];
        s.fo = swap ? h + "(c, rid) := exists n. restr(rid, n, c, \"" +
                          rating + "\")"
                    : h + "(c, rid, n) := restr(rid, n, c, \"" + rating +
                          "\")";
        s.ref = {swap ? h + "(c, rid) :- restr(rid, n, c, \"" + rating + "\")"
                      : h + "(c, rid, n) :- restr(rid, n, c, \"" + rating +
                            "\")"};
        s.param = "c";
        s.city_param = true;
        out.push_back(s);
        break;
      }
      default: {
        const std::string f = "friend(p, id)";
        const std::string q = "person(id, n, c)";
        out.push_back(PersonShape(
            h + "(p, c) := exists id. exists n. " +
                (swap ? q + " and " + f : f + " and " + q),
            {h + "(p, c) :- " + f + ", " + q}));
        break;
      }
    }
  }
  return out;
}

}  // namespace

std::string CityName(uint32_t city) {
  return city == 0 ? std::string(scalein::kNyc)
                   : "city" + std::to_string(city);
}

QueryMix::QueryMix(const std::string& name, const scalein::SocialConfig& cfg)
    : persons_(cfg.num_persons), cities_(cfg.num_cities) {
  if (name == "point") {
    shapes_ = PointShapes();
  } else if (name == "fanout") {
    shapes_ = FanoutShapes();
  } else if (name == "cold_plans") {
    shapes_ = ColdPlanShapes(kColdPlanTexts, cities_);
  } else {
    Die("no query mix for workload '" + name + "'");
  }
  // A fixed permutation spreads Zipf ranks over ids, so the hot persons are
  // not simply the first rows generated.
  multiplier_ = 2654435761ULL % persons_;
  while (std::gcd(multiplier_, persons_) != 1) ++multiplier_;
}

uint64_t QueryMix::PersonId(uint64_t rank) const {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(rank) * multiplier_) % persons_);
}

Request QueryMix::Draw(scalein::Rng* rng) const {
  Request r;
  r.shape = static_cast<uint32_t>(rng->Uniform(shapes_.size()));
  if (shapes_[r.shape].city_param) {
    r.city = static_cast<uint32_t>(rng->Uniform(cities_));
  } else {
    r.person = static_cast<int64_t>(PersonId(rng->Zipf(persons_, kZipf)));
  }
  return r;
}

std::string QueryMix::Binding(const Request& r) const {
  const Shape& s = shapes_[r.shape];
  return s.param + "=" +
         (s.city_param ? CityName(r.city) : std::to_string(r.person));
}

std::string QueryMix::Line(const Request& r, const std::string& tag) const {
  std::string out = "eval ";
  if (!tag.empty()) out += "@" + tag + " ";
  return out + Binding(r) + " " + shapes_[r.shape].fo;
}

Reference::Reference(scalein::Database* db, const QueryMix& mix) : db_(db) {
  auto parse = [db](const std::string& text) {
    scalein::Result<scalein::Cq> cq = scalein::ParseCq(text, &db->schema());
    if (!cq.ok()) Die("reference CQ '" + text + "': " + cq.status().ToString());
    return *std::move(cq);
  };
  for (const Shape& s : mix.shapes()) {
    std::vector<scalein::Cq> cqs;
    for (const std::string& text : s.ref) cqs.push_back(parse(text));
    cqs_.push_back(std::move(cqs));
  }
  friends_of_ = parse("B(a, b) :- friend(a, b)");
  in_nyc_ = parse("C(b) :- person(b, n, \"NYC\")");
}

scalein::AnswerSet Reference::Answers(const QueryMix& mix,
                                      const Request& r) const {
  const Shape& s = mix.shapes()[r.shape];
  scalein::Binding binding;
  binding.emplace(scalein::Variable::Named(s.param),
                  s.city_param ? scalein::Value::Str(CityName(r.city))
                               : scalein::Value::Int(r.person));
  scalein::CqEvaluator eval(db_);
  scalein::AnswerSet out;
  for (const scalein::Cq& cq : cqs_[r.shape]) {
    scalein::AnswerSet part = eval.Evaluate(cq, binding);
    out.insert(part.begin(), part.end());
  }
  if (!s.forall_nyc) return out;
  // forall b. friend(a, b) implies exists n. person(b, n, "NYC")
  scalein::AnswerSet kept;
  for (const scalein::Tuple& t : out) {
    bool all = true;
    scalein::Binding a{{scalein::Variable::Named("a"), t[0]}};
    for (const scalein::Tuple& fb : eval.Evaluate(friends_of_, a)) {
      scalein::Binding b{{scalein::Variable::Named("b"), fb[0]}};
      if (!eval.EvaluateBoolean(in_nyc_, b)) {
        all = false;
        break;
      }
    }
    if (all) kept.insert(t);
  }
  return kept;
}

}  // namespace perfbench
