#ifndef SEDA_CUBE_CUBE_BUILDER_H_
#define SEDA_CUBE_CUBE_BUILDER_H_

#include <string>
#include <vector>

#include "column/column_store.h"
#include "common/status.h"
#include "cube/catalog.h"
#include "obs/trace.h"
#include "twig/twig.h"

namespace seda::cube {

/// A relational table materialized from the XML result (fact or dimension).
struct Table {
  std::string name;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  /// Indices of the key columns (for fact tables: the dimension columns).
  std::vector<size_t> key_columns;

  /// Renders an aligned, human-readable grid.
  std::string ToString() const;
};

/// Outcome of Step 1 (matching) for one result column.
struct ColumnMatch {
  size_t column = 0;
  std::vector<std::string> paths;        ///< distinct paths in the column
  std::string matched_name;              ///< fact/dimension name, empty if none
  bool is_fact = false;
  bool ignored = false;                  ///< no match and user defined nothing
  std::vector<std::string> partial_matches;  ///< names intersecting only partially
};

/// The derived star schema: one fact table per fact (merged when keys
/// coincide) plus one dimension table per dimension (paper Fig. 3c).
struct StarSchema {
  std::vector<Table> fact_tables;
  std::vector<Table> dimension_tables;
  std::vector<ColumnMatch> matches;
  std::vector<std::string> warnings;

  /// Columnar-scan observability (not part of ToString(), so response bytes
  /// stay identical with columns on or off): column row lookups performed,
  /// and result tuples whose extraction touched the tree walk.
  uint64_t column_rows_scanned = 0;
  uint64_t column_fallback_docs = 0;

  std::string ToString() const;
};

/// Builds fact and dimension tables from a complete query result via the
/// paper's three steps (§7): (1) match result columns against the catalog,
/// (2) augment with missing key columns (auto-adding dimensions such as
/// /country/year), and (3) extract values from the document store, pairing
/// key components through relative-key evaluation.
class CubeBuilder {
 public:
  /// `columns` (optional) enables the vectorized extraction path: key
  /// components and values resolve against the epoch's schema-inferred
  /// columns (src/column/) where one covers the path, falling back to the
  /// per-node tree walk elsewhere — byte-identical output either way.
  CubeBuilder(const store::DocumentStore* store, const Catalog* catalog,
              const column::ColumnStore* columns = nullptr)
      : store_(store), catalog_(catalog), columns_(columns) {}

  struct Options {
    /// Step 2 manual augmentation: extra facts/dimensions by name, and
    /// removals.
    std::vector<std::string> add_facts;
    std::vector<std::string> remove_facts;
    std::vector<std::string> add_dimensions;
    std::vector<std::string> remove_dimensions;
    /// Merge fact tables whose keys resolve to identical targets.
    bool merge_fact_tables = true;
    /// Per-request trace span (obs/trace.h): when non-null, Build opens
    /// child spans (cube_match / cube_augment / cube_extract) under it.
    /// Single-threaded, per-request, never persisted — see
    /// topk::TopKOptions::trace for the contract.
    obs::TraceSpan* trace = nullptr;
  };

  Result<StarSchema> Build(const twig::CompleteResult& result,
                           const Options& options) const;
  Result<StarSchema> Build(const twig::CompleteResult& result) const {
    return Build(result, Options{});
  }

 private:
  const store::DocumentStore* store_;
  const Catalog* catalog_;
  const column::ColumnStore* columns_;
};

}  // namespace seda::cube

#endif  // SEDA_CUBE_CUBE_BUILDER_H_
