#include "corpus.h"

#include "data/generators.h"
#include "store/document_store.h"
#include "xml/parser.h"

namespace sedabench {

namespace {
std::vector<XmlDoc> Serialize(const seda::store::DocumentStore& store) {
  std::vector<XmlDoc> docs;
  docs.reserve(store.DocumentCount());
  for (seda::store::DocId d = 0; d < store.DocumentCount(); ++d) {
    docs.push_back({store.document(d).name(),
                    seda::xml::Serialize(store.document(d))});
  }
  return docs;
}
}  // namespace

std::vector<XmlDoc> FactbookXml(uint64_t seed) {
  seda::store::DocumentStore scratch;
  seda::data::WorldFactbookGenerator::Options options;
  options.seed = seed;
  seda::data::WorldFactbookGenerator(options).Populate(&scratch);
  return Serialize(scratch);
}

std::vector<XmlDoc> MondialXml(uint64_t seed) {
  seda::store::DocumentStore scratch;
  seda::data::MondialGenerator::Options options;
  options.seed = seed;
  seda::data::MondialGenerator(options).Populate(&scratch);
  return Serialize(scratch);
}

uint64_t TotalBytes(const std::vector<XmlDoc>& docs) {
  uint64_t bytes = 0;
  for (const XmlDoc& doc : docs) bytes += doc.text.size();
  return bytes;
}

seda::core::SedaOptions BenchOptions() {
  seda::core::SedaOptions options;
  options.value_edges.push_back({kName, kTrade, "trade_partner"});
  options.num_threads = 1;
  options.query_threads = 1;
  // Serving budgets of the paper's hub-heavy scenario (the same tight
  // values bench_snapshot_io serves with): structural terms such as
  // (trade_country, *) otherwise score 10000 tuples per search, which
  // would leave too few tasks per run for a steady tail.
  options.topk.max_tuples_per_query = 500;
  options.topk.max_connect_visits = 256;
  return options;
}

}  // namespace sedabench
