#ifndef SEDA_TESTS_REFERENCE_MICRO_COLLECTION_H_
#define SEDA_TESTS_REFERENCE_MICRO_COLLECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/document_store.h"

namespace seda::reference {

/// A seeded micro-collection for the oracle checks: 10-40 small documents
/// under two root tags over a four-tag alphabet, leaves drawn from a
/// four-word vocabulary, `id` attributes on roots and some inner elements,
/// and random `idref` attributes (within and across documents), plus 1-3
/// term queries in the paper's surface syntax. Every choice comes from the
/// seed, so a failing seed replays exactly.
struct MicroCollection {
  std::vector<std::string> documents;  ///< XML text, one per document
  std::vector<std::string> queries;

  /// Adds every document to `store`, in order, named micro-<n>.
  Status Populate(store::DocumentStore* store) const;
};

MicroCollection GenerateMicroCollection(uint64_t seed);

}  // namespace seda::reference

#endif  // SEDA_TESTS_REFERENCE_MICRO_COLLECTION_H_
