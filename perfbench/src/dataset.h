// Seeded input generation: the social database every workload runs on, its
// CSV files and the catalog script the shipped server loads.
#ifndef PERFBENCH_DATASET_H_
#define PERFBENCH_DATASET_H_

#include <string>
#include <vector>

#include "relational/database.h"
#include "util.h"
#include "workload/social_gen.h"

namespace perfbench {

/// Sizes of the generated social database (Example 1.1's schema): 30 000
/// persons, friend cap 50, 100 restaurants, 6 visits per person, 10 cities.
scalein::SocialConfig SocialConfigFor(uint64_t seed);

/// The declared cap N of the access statement visit(id): generated visits
/// per person are not capped by construction, so users check it on the data.
uint64_t VisitCap(const scalein::SocialConfig& cfg);

/// Writes one CSV file per relation under `dir` plus `dir`/catalog.txt
/// (schema, access statements, `load` lines). Returns the catalog path.
std::string WriteCatalog(const scalein::Database& db,
                         const scalein::SocialConfig& cfg, bool with_visits,
                         const std::string& dir);

/// Reads a catalog script line by line (blank lines skipped).
std::vector<std::string> ReadLines(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_DATASET_H_
