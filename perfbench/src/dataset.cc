#include "dataset.h"

#include <fstream>

#include "io/catalog.h"
#include "util/strings.h"

namespace perfbench {

scalein::SocialConfig SocialConfigFor(uint64_t seed) {
  scalein::SocialConfig cfg;
  cfg.num_persons = 30000;
  cfg.max_friends_per_person = 50;
  cfg.num_restaurants = 100;
  cfg.avg_visits_per_person = 6;
  cfg.num_cities = 10;
  cfg.seed = seed;
  return cfg;
}

uint64_t VisitCap(const scalein::SocialConfig& cfg) {
  return 4 * cfg.avg_visits_per_person + 64;
}

namespace {

// The declared access schema as catalog statements; `with_visits` adds the
// visit(id) statement the maintenance workload needs.
std::vector<std::string> AccessStatements(const scalein::SocialConfig& cfg,
                                          bool with_visits) {
  std::vector<std::string> out = {
      scalein::StrFormat("access access friend(id1) N=%llu",
                         static_cast<unsigned long long>(
                             cfg.max_friends_per_person)),
      "access key person(id)",
      "access key restr(rid)",
      scalein::StrFormat(
          "access access restr(city) N=%llu",
          static_cast<unsigned long long>(cfg.num_restaurants)),
  };
  if (with_visits) {
    out.push_back(scalein::StrFormat(
        "access access visit(id) N=%llu",
        static_cast<unsigned long long>(VisitCap(cfg))));
  }
  return out;
}

}  // namespace

std::string WriteCatalog(const scalein::Database& db,
                         const scalein::SocialConfig& cfg, bool with_visits,
                         const std::string& dir) {
  std::string catalog;
  for (const char* rel : {"person", "friend", "restr", "visit"}) {
    const scalein::RelationSchema* rs = db.schema().FindRelation(rel);
    if (rs == nullptr) Die(std::string("generated database lacks ") + rel);
    catalog += "schema relation " + rs->ToString() + "\n";
  }
  for (const std::string& stmt : AccessStatements(cfg, with_visits)) {
    catalog += stmt + "\n";
  }
  for (const char* rel : {"person", "friend", "restr", "visit"}) {
    const std::string path = dir + "/" + rel + ".csv";
    scalein::Status s = scalein::WriteStringToFile(
        path, scalein::RelationToCsv(db.relation(rel)));
    if (!s.ok()) Die("write " + path + ": " + s.ToString());
    catalog += std::string("load ") + rel + " " + path + "\n";
  }
  const std::string path = dir + "/catalog.txt";
  scalein::Status s = scalein::WriteStringToFile(path, catalog);
  if (!s.ok()) Die("write " + path + ": " + s.ToString());
  return path;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (!scalein::StripWhitespace(line).empty()) out.push_back(line);
  }
  return out;
}

}  // namespace perfbench
