#ifndef SEDA_CORE_SESSION_H_
#define SEDA_CORE_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/snapshot.h"

namespace seda::core {

/// One interactive exploration (the paper's Fig. 6 loop) as an object: a
/// Session pins a single Snapshot for its whole lifetime and carries the
/// loop's accumulated state — the current (possibly refined) query, the last
/// SearchResponse and the refinement history — so a multi-round exploration
/// is one handle, and every round sees the same data no matter how many
/// Commit()s land meanwhile. Obtain one via Seda::NewSession(), or pin any
/// Snapshot directly.
///
/// A Session is single-threaded (it mutates its own state); run concurrent
/// explorations in separate Sessions, which may freely share a snapshot.
/// The pinned epoch stays alive for as long as the Session holds it, even if
/// the owning Seda is destroyed; only BuildCube needs the writer-side
/// catalog to still exist.
class Session {
 public:
  /// `catalog` (optional) supplies user-defined dimensions/facts for
  /// BuildCube; not owned and may be defined/extended after creation.
  explicit Session(std::shared_ptr<const Snapshot> snapshot,
                   const cube::Catalog* catalog = nullptr)
      : snapshot_(std::move(snapshot)), catalog_(catalog) {}

  /// Epoch this session is pinned to (constant for the session's lifetime).
  uint64_t epoch() const { return snapshot_->epoch(); }
  const Snapshot& snapshot() const { return *snapshot_; }

  Result<query::Query> Parse(const std::string& text) const {
    return snapshot_->Parse(text);
  }

  /// Fig. 6 first stage: runs top-k search plus both summaries, making
  /// `query` the session's current query. Starting a new Search resets the
  /// refinement history — it begins a fresh exploration on the same pin.
  Result<SearchResponse> Search(const query::Query& query);
  Result<SearchResponse> Search(const std::string& query_text);

  /// Search with per-request engine options (deadline_ms, k, ... — the
  /// api::SedaService request path); state updates are identical to Search().
  Result<SearchResponse> Search(const query::Query& query,
                                const topk::TopKOptions& topk_options);
  Result<SearchResponse> Search(const std::string& query_text,
                                const topk::TopKOptions& topk_options);

  /// Fig. 6 feedback edge: applies the user's context picks (one list per
  /// term; empty = leave that term as is) to the current query and re-runs
  /// Search. Requires a prior Search in this session. `chosen_paths` must
  /// carry exactly one list per query term; a mismatch (or a non-absolute
  /// path, reported with its term index) returns InvalidArgument.
  Result<SearchResponse> RefineContexts(
      const std::vector<std::vector<std::string>>& chosen_paths);
  Result<SearchResponse> RefineContexts(
      const std::vector<std::vector<std::string>>& chosen_paths,
      const topk::TopKOptions& topk_options);

  /// Fig. 6 completion stage: the complete result set R(q) for the current
  /// query with terms pinned to single contexts, honoring chosen
  /// connections. Requires a prior Search. `options.deadline_ms` bounds the
  /// twig join (partial results report deadline_exceeded).
  Result<twig::CompleteResult> CompleteResults(
      const std::vector<std::string>& term_paths,
      const std::vector<twig::ChosenConnection>& connections,
      const twig::ExecuteOptions& options = {}) const;

  /// Fig. 6 last stage: star schema (and OLAP cube) from a complete result,
  /// using the catalog handed to the constructor.
  Result<cube::StarSchema> BuildCube(
      const twig::CompleteResult& result,
      const cube::CubeBuilder::Options& options) const;
  Result<cube::StarSchema> BuildCube(const twig::CompleteResult& result) const {
    return BuildCube(result, cube::CubeBuilder::Options{});
  }
  Result<olap::Cube> ToOlapCube(const cube::StarSchema& schema) const {
    return snapshot_->ToOlapCube(schema);
  }

  /// Installs `query` as the current query without searching — the escape
  /// hatch for callers that already hold a refined query and only want
  /// CompleteResults.
  void SetQuery(query::Query query) { current_query_ = std::move(query); }

  bool has_query() const { return current_query_.has_value(); }
  const query::Query& current_query() const { return *current_query_; }
  /// Last successful SearchResponse, or nullptr before the first Search.
  const SearchResponse* last_response() const {
    return last_response_.has_value() ? &*last_response_ : nullptr;
  }
  /// Number of successful Search rounds (refinements included).
  size_t rounds() const { return rounds_; }
  /// The context picks of each successful RefineContexts round since the
  /// last fresh Search, oldest first.
  const std::vector<std::vector<std::vector<std::string>>>& refinement_history()
      const {
    return refinement_history_;
  }

 private:
  std::shared_ptr<const Snapshot> snapshot_;
  const cube::Catalog* catalog_;
  std::optional<query::Query> current_query_;
  std::optional<SearchResponse> last_response_;
  std::vector<std::vector<std::vector<std::string>>> refinement_history_;
  size_t rounds_ = 0;
};

}  // namespace seda::core

#endif  // SEDA_CORE_SESSION_H_
