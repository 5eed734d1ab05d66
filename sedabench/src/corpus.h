// Seeded input generation. Every workload's documents come from the
// repository's data generators, serialized to XML text before any clock
// starts; the program under test only ever sees that text.
#ifndef SEDABENCH_CORPUS_H_
#define SEDABENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/snapshot.h"

namespace sedabench {

struct XmlDoc {
  std::string name;
  std::string text;
};

/// The full-scale Factbook releases 2002-2007 (267 documents a year),
/// generated with `seed`.
std::vector<XmlDoc> FactbookXml(uint64_t seed);

/// Full-scale Mondial (5563 documents), generated with `seed`.
std::vector<XmlDoc> MondialXml(uint64_t seed);

uint64_t TotalBytes(const std::vector<XmlDoc>& docs);

/// Engine configuration shared by every workload: the paper's trade-partner
/// value edge (hub-heavy connection scoring), tight top-k budgets and pinned
/// pools — one commit worker, inline query scoring.
seda::core::SedaOptions BenchOptions();

/// Factbook paths of the facts and dimensions the tasks use (Fig. 3 and
/// the GDP -> GDP_ppp schema change).
inline constexpr const char* kName = "/country/name";
inline constexpr const char* kYear = "/country/year";
inline constexpr const char* kTrade =
    "/country/economy/import_partners/item/trade_country";
inline constexpr const char* kPct =
    "/country/economy/import_partners/item/percentage";
inline constexpr const char* kExportTrade =
    "/country/economy/export_partners/item/trade_country";
inline constexpr const char* kExportPct =
    "/country/economy/export_partners/item/percentage";
inline constexpr const char* kGdp = "/country/economy/GDP";
inline constexpr const char* kGdpPpp = "/country/economy/GDP_ppp";

}  // namespace sedabench

#endif  // SEDABENCH_CORPUS_H_
