#include "store/document_store.h"

#include <algorithm>
#include <unordered_set>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "persist/reader.h"
#include "persist/writer.h"
#include "xml/parser.h"

namespace seda::store {

std::string NodeId::ToString() const {
  return "n" + std::to_string(doc) + "@" + dewey.ToString();
}

uint64_t NodeId::Hash() const {
  return HashCombine(static_cast<uint64_t>(doc) + 1, dewey.Hash());
}

DocId DocumentStore::AddDocument(std::unique_ptr<xml::Document> doc) {
  DocId id = static_cast<DocId>(docs_.size());
  docs_.push_back(std::move(doc));

  std::vector<PathId> path_set;
  std::unordered_set<PathId> seen_in_doc;
  docs_[id]->ForEachNode([&](xml::Node* node) {
    ++total_nodes_;
    if (node->kind() == xml::NodeKind::kText) return;  // text shares parent path
    std::string path = node->ContextPath();
    // First intern pass with a tentative "not first" flag requires knowing the
    // id; Intern handles count bookkeeping, so probe first.
    PathId existing = path_dict_.Find(path);
    bool first_in_doc =
        existing == kInvalidPathId || !seen_in_doc.count(existing);
    PathId pid = path_dict_.Intern(path, first_in_doc);
    if (seen_in_doc.insert(pid).second) {
      path_set.push_back(pid);
    }
  });
  std::sort(path_set.begin(), path_set.end());
  doc_path_sets_.push_back(
      std::make_shared<const std::vector<PathId>>(std::move(path_set)));
  return id;
}

std::unique_ptr<DocumentStore> DocumentStore::Clone() const {
  auto clone = std::make_unique<DocumentStore>();
  // Documents and per-document path sets are immutable once added, so both
  // are shared by pointer: a clone costs two pointer-vector copies plus the
  // path dictionary, independent of document sizes.
  clone->docs_ = docs_;
  clone->doc_path_sets_ = doc_path_sets_;
  clone->path_dict_ = path_dict_;
  clone->total_nodes_ = total_nodes_;
  return clone;
}

Result<DocId> DocumentStore::AddXml(const std::string& xml_text,
                                    const std::string& doc_name) {
  auto parsed = xml::Parser::Parse(xml_text, doc_name);
  if (!parsed.ok()) return parsed.status();
  return AddDocument(std::move(parsed).value());
}

namespace {

/// Preorder tree encoding: kind, name, text, child count, then children.
/// Dewey ids are not stored — they are a pure function of tree shape and are
/// reassigned by Document::SetRoot on load.
void EncodeNode(persist::ImageWriter* writer, const xml::Node& node) {
  writer->PutU8(static_cast<uint8_t>(node.kind()));
  writer->PutString(node.name());
  writer->PutString(node.text());
  writer->PutU32(static_cast<uint32_t>(node.children().size()));
  for (const auto& child : node.children()) EncodeNode(writer, *child);
}

/// Decodes one node header into a fresh Node (children not yet attached).
std::unique_ptr<xml::Node> DecodeNodeHeader(persist::SectionCursor* cursor,
                                            uint32_t* child_count) {
  uint8_t kind = cursor->GetU8();
  if (kind > static_cast<uint8_t>(xml::NodeKind::kText)) {
    // An out-of-range kind would smuggle past every downstream enum switch.
    return nullptr;
  }
  std::string name = cursor->GetString();
  auto node = std::make_unique<xml::Node>(static_cast<xml::NodeKind>(kind),
                                          std::move(name));
  node->set_text(cursor->GetString());
  *child_count = cursor->GetU32();
  return node;
}

/// Attaches `parent`'s subtree top-down: each AddChild numbers the new —
/// still childless — node in O(1), so the whole tree gets its Dewey ids in
/// one build pass and AdoptRoot can skip the renumbering sweep.
bool DecodeChildren(persist::SectionCursor* cursor, xml::Node* parent,
                    uint32_t child_count, uint32_t depth) {
  // Same bound the parser enforces: no storable document can hit it, and a
  // crafted image cannot ride the recursion into a stack overflow.
  if (depth > xml::kMaxDocumentDepth) return false;
  parent->ReserveChildren(cursor->BoundedCount(child_count, 13));
  for (uint32_t i = 0; i < child_count && !cursor->failed(); ++i) {
    uint32_t grandchildren = 0;
    auto child = DecodeNodeHeader(cursor, &grandchildren);
    if (child == nullptr) return false;
    xml::Node* attached = parent->AddChild(std::move(child));
    if (!DecodeChildren(cursor, attached, grandchildren, depth + 1)) {
      return false;
    }
  }
  return !cursor->failed();
}

std::unique_ptr<xml::Node> DecodeNode(persist::SectionCursor* cursor) {
  uint32_t child_count = 0;
  auto root = DecodeNodeHeader(cursor, &child_count);
  if (root == nullptr) return nullptr;
  root->AssignDewey(xml::DeweyId({1}));  // childless: O(1)
  if (!DecodeChildren(cursor, root.get(), child_count, 1)) return nullptr;
  return root;
}

}  // namespace

Status DocumentStore::SaveTo(persist::ImageWriter* writer) const {
  writer->BeginSection(persist::SectionId::kStorePaths);
  path_dict_.SaveTo(writer);
  SEDA_RETURN_IF_ERROR(writer->EndSection());

  writer->BeginSection(persist::SectionId::kStoreDocs);
  writer->PutU64(total_nodes_);
  writer->PutU64(docs_.size());
  for (size_t d = 0; d < docs_.size(); ++d) {
    // One skippable blob per document, so Load can fan materialization out.
    writer->BeginBlob();
    writer->PutString(docs_[d]->name());
    writer->PutU8(docs_[d]->root() != nullptr ? 1 : 0);
    if (docs_[d]->root() != nullptr) EncodeNode(writer, *docs_[d]->root());
    const std::vector<PathId>& path_set = *doc_path_sets_[d];
    writer->PutU32Array(path_set);
    writer->EndBlob();
  }
  return writer->EndSection();
}

Result<std::unique_ptr<DocumentStore>> DocumentStore::LoadFrom(
    const persist::MappedImage& image, ThreadPool* pool) {
  auto store = std::make_unique<DocumentStore>();

  SEDA_ASSIGN_OR_RETURN(persist::SectionCursor paths_cursor,
                        persist::OpenSection(image, persist::SectionId::kStorePaths));
  SEDA_RETURN_IF_ERROR(store->path_dict_.LoadFrom(&paths_cursor));

  SEDA_ASSIGN_OR_RETURN(persist::SectionCursor docs_cursor,
                        persist::OpenSection(image, persist::SectionId::kStoreDocs));
  store->total_nodes_ = docs_cursor.GetU64();
  uint64_t doc_count = docs_cursor.GetU64();
  std::vector<persist::SectionCursor> blobs;
  blobs.reserve(docs_cursor.BoundedCount(doc_count, 8));
  for (uint64_t d = 0; d < doc_count && !docs_cursor.failed(); ++d) {
    blobs.push_back(docs_cursor.GetBlob());
  }
  SEDA_RETURN_IF_ERROR(docs_cursor.status());

  // Materialize documents in parallel: each blob is self-contained, and the
  // results are committed in DocId order below.
  std::vector<std::shared_ptr<xml::Document>> docs(blobs.size());
  std::vector<std::shared_ptr<const std::vector<PathId>>> path_sets(blobs.size());
  std::vector<Status> statuses(blobs.size());
  const size_t path_count = store->path_dict_.size();
  RunParallel(pool, blobs.size(), [&](size_t d) {
    persist::SectionCursor& blob = blobs[d];
    auto doc = std::make_shared<xml::Document>(blob.GetString());
    bool has_root = blob.GetU8() != 0;
    if (has_root) {
      auto root = DecodeNode(&blob);
      if (root == nullptr) {
        Status bad = blob.status();
        statuses[d] = bad.ok() ? Status::ParseError(
                                     "image document tree decode failed")
                               : bad;
        return;
      }
      doc->AdoptRoot(std::move(root));  // Dewey ids assigned during decode
    }
    std::vector<uint32_t> path_set = blob.GetU32Array();
    if (blob.failed()) {
      statuses[d] = blob.status();
      return;
    }
    // The dataguide build indexes by these ids: hold them to the auditor's
    // store.doc_path_set_bounds / _sorted rules here.
    for (size_t i = 0; i < path_set.size(); ++i) {
      if (path_set[i] >= path_count) {
        statuses[d] = Status::ParseError(
            "image document path set entry past the dictionary");
        return;
      }
      if (i > 0 && path_set[i] <= path_set[i - 1]) {
        statuses[d] = Status::ParseError(
            "image document path set not strictly ascending");
        return;
      }
    }
    docs[d] = std::move(doc);
    path_sets[d] = std::make_shared<const std::vector<PathId>>(
        std::move(path_set));
  });
  for (const Status& status : statuses) {
    SEDA_RETURN_IF_ERROR(status);
  }
  store->docs_ = std::move(docs);
  store->doc_path_sets_ = std::move(path_sets);
  return store;
}

xml::Node* DocumentStore::GetNode(const NodeId& id) const {
  if (id.doc >= docs_.size()) return nullptr;
  return docs_[id.doc]->FindByDewey(id.dewey);
}

std::string DocumentStore::GetContent(const NodeId& id) const {
  xml::Node* node = GetNode(id);
  return node != nullptr ? node->ContentString() : std::string();
}

Result<PathId> DocumentStore::GetPathId(const NodeId& id) const {
  xml::Node* node = GetNode(id);
  if (node == nullptr) return Status::NotFound("node " + id.ToString());
  PathId pid = path_dict_.Find(node->ContextPath());
  if (pid == kInvalidPathId) {
    return Status::Internal("path not interned for " + id.ToString());
  }
  return pid;
}

}  // namespace seda::store
