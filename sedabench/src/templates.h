// The analyst tasks: the paper's trade-partner (Query 1,
// Fig. 3) and GDP (schema evolution, §7) explorations as Fig. 6 loops.
#ifndef SEDABENCH_TEMPLATES_H_
#define SEDABENCH_TEMPLATES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/seda.h"

namespace sedabench {

/// One Fig. 6 task: search, refine to one context per term, complete, cube
/// with an OLAP aggregate.
struct TaskTemplate {
  std::string kind;
  std::string query;
  std::vector<std::string> term_paths;  ///< refine picks and complete paths
  std::vector<std::string> group_dims;
  std::string agg_fn;
  std::string measure;
};

/// Defines the facts and dimensions the templates aggregate (Fig. 3b plus
/// the export side).
void DefineCatalog(seda::core::Seda* seda);

/// The paper's Query 1 loop: (*, "United States") AND (trade_country, *)
/// AND (percentage, *), refined to the import partners, cubed by year.
TaskTemplate Query1Task();

/// A one-term loop over the schema-evolved GDP fact: (GDP_ppp, *), refined
/// to /country/economy/GDP_ppp, completed and summed by year.
TaskTemplate GdpPppTask();

/// The task pool: 16 tasks in a fixed order — the whole-collection import,
/// export and GDP loops, Query 1, and 11 per-country loops whose countries
/// `seed` draws.
std::vector<TaskTemplate> TaskPool(uint64_t seed);

}  // namespace sedabench

#endif  // SEDABENCH_TEMPLATES_H_
