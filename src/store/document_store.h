#ifndef SEDA_STORE_DOCUMENT_STORE_H_
#define SEDA_STORE_DOCUMENT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "store/path_dictionary.h"
#include "xml/document.h"

namespace seda {
class ThreadPool;
}

namespace seda::persist {
class ImageWriter;
class MappedImage;
}  // namespace seda::persist

namespace seda::store {

/// Dense id of a document within the store.
using DocId = uint32_t;

/// Global node reference: (document, Dewey ID). The paper's full query result
/// R(q) carries exactly these references plus the node's path (Fig. 3).
struct NodeId {
  DocId doc = 0;
  xml::DeweyId dewey;

  bool operator==(const NodeId& other) const {
    return doc == other.doc && dewey == other.dewey;
  }
  bool operator<(const NodeId& other) const {
    if (doc != other.doc) return doc < other.doc;
    return dewey < other.dewey;
  }
  /// Renders as "n<doc>@<dewey>", e.g. "n3@1.2.2.1".
  std::string ToString() const;
  uint64_t Hash() const;
};

struct NodeIdHasher {
  size_t operator()(const NodeId& id) const { return static_cast<size_t>(id.Hash()); }
};

/// The storage substrate (DB2 pureXML substitute): owns parsed documents,
/// interns every node's root-to-leaf path into a PathDictionary, and serves
/// node lookups / content retrieval for the execution engine.
class DocumentStore {
 public:
  DocumentStore() = default;
  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;
  DocumentStore(DocumentStore&&) = default;
  DocumentStore& operator=(DocumentStore&&) = default;

  /// Adds a document; assigns a DocId, interns all node paths and records
  /// per-document path sets (used by the dataguide builder).
  DocId AddDocument(std::unique_ptr<xml::Document> doc);

  /// Snapshot support: a new store sharing ownership of every parsed document
  /// (documents are immutable once stored, so sharing is safe) with copies of
  /// the path dictionary and per-document path sets. Mutating the original
  /// afterwards — appending more documents — never disturbs the clone, which
  /// is what lets an immutable query snapshot coexist with a writer that
  /// keeps ingesting. DocIds, PathIds and node pointers are identical in both
  /// stores.
  std::unique_ptr<DocumentStore> Clone() const;

  /// Parses `xml_text` and adds the resulting document.
  Result<DocId> AddXml(const std::string& xml_text, const std::string& doc_name);

  size_t DocumentCount() const { return docs_.size(); }
  const xml::Document& document(DocId id) const { return *docs_[id]; }

  /// Total number of nodes stored (elements + attributes + text).
  uint64_t TotalNodeCount() const { return total_nodes_; }

  /// Resolves a NodeId to its node, or nullptr when out of range.
  xml::Node* GetNode(const NodeId& id) const;

  /// Content (concatenated descendant text) of a node; empty when absent.
  std::string GetContent(const NodeId& id) const;

  /// Root-to-leaf path id of a node. Requires the node to exist.
  Result<PathId> GetPathId(const NodeId& id) const;

  const PathDictionary& paths() const { return path_dict_; }

  /// Distinct path ids appearing in a document (its dataguide path set).
  const std::vector<PathId>& DocumentPathSet(DocId id) const {
    return *doc_path_sets_[id];
  }

  /// Persistence hooks (src/persist/): writes the store-paths and store-docs
  /// sections (dictionary, preorder document trees as skippable blobs,
  /// per-document path sets) / reconstructs a store from a validated image.
  /// Dewey ids are recomputed from tree shape (they are purely structural),
  /// and document blobs materialize in parallel over `pool` when given. The
  /// loaded store is indistinguishable from the one ingestion built. A path
  /// set entry past the dictionary or out of strictly ascending order is a
  /// ParseError.
  Status SaveTo(persist::ImageWriter* writer) const;
  static Result<std::unique_ptr<DocumentStore>> LoadFrom(
      const persist::MappedImage& image, ThreadPool* pool = nullptr);

  /// Visits every (NodeId, Node*) in document order across the collection.
  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    for (DocId d = 0; d < docs_.size(); ++d) {
      docs_[d]->ForEachNode([&](xml::Node* node) {
        fn(NodeId{d, node->dewey()}, node);
      });
    }
  }

 private:
  std::vector<std::shared_ptr<xml::Document>> docs_;
  /// Per-document path sets are immutable once the document is added, so —
  /// like the documents themselves — epoch clones share them by pointer.
  std::vector<std::shared_ptr<const std::vector<PathId>>> doc_path_sets_;
  PathDictionary path_dict_;
  uint64_t total_nodes_ = 0;
};

}  // namespace seda::store

#endif  // SEDA_STORE_DOCUMENT_STORE_H_
