#include "reference/micro_collection.h"

#include <memory>
#include <random>

namespace seda::reference {

namespace {

constexpr const char* kRoots[] = {"r", "s"};
constexpr const char* kTags[] = {"a", "b", "c", "d"};
constexpr const char* kWords[] = {"red", "green", "blue", "gold"};

class Draw {
 public:
  explicit Draw(uint64_t seed) : rng_(seed) {}
  /// Uniform in [0, n); modulo of a 64-bit draw, so every platform replays
  /// the same collection from a seed.
  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }
  bool Chance(unsigned percent) { return Below(100) < percent; }
  template <size_t N>
  const char* Pick(const char* const (&items)[N]) {
    return items[Below(N)];
  }

 private:
  std::mt19937_64 rng_;
};

struct Element {
  std::string tag;
  std::string id;
  bool has_idref = false;
  std::string idref;
  std::string text;
  std::vector<std::unique_ptr<Element>> children;
};

std::unique_ptr<Element> MakeElement(Draw& draw, const std::string& tag,
                                     size_t depth, size_t doc,
                                     std::vector<std::string>* ids,
                                     std::vector<Element*>* referrers) {
  auto element = std::make_unique<Element>();
  element->tag = tag;
  if (depth == 1 || draw.Chance(20)) {
    element->id = "n" + std::to_string(doc) + "_" + std::to_string(ids->size());
    ids->push_back(element->id);
  }
  if (depth > 1 && draw.Chance(15)) {
    element->has_idref = true;
    referrers->push_back(element.get());
  }
  if (depth >= 3 || (depth > 1 && draw.Chance(40))) {
    element->text = draw.Pick(kWords);
    if (draw.Chance(30)) element->text += std::string(" ") + draw.Pick(kWords);
    return element;
  }
  const size_t children = 1 + draw.Below(3);
  for (size_t i = 0; i < children; ++i) {
    element->children.push_back(
        MakeElement(draw, draw.Pick(kTags), depth + 1, doc, ids, referrers));
  }
  return element;
}

void Write(const Element& element, std::string* out) {
  *out += "<" + element.tag;
  if (!element.id.empty()) *out += " id=\"" + element.id + "\"";
  if (element.has_idref) *out += " idref=\"" + element.idref + "\"";
  *out += ">" + element.text;
  for (const auto& child : element.children) Write(*child, out);
  *out += "</" + element.tag + ">";
}

std::string MakeKeywords(Draw& draw, bool allow_not) {
  const size_t kind = draw.Below(allow_not ? 4 : 3);
  if (kind == 0) return std::string(draw.Pick(kWords)) + " OR " + draw.Pick(kWords);
  if (kind == 3) return std::string("NOT ") + draw.Pick(kWords);
  return draw.Pick(kWords);
}

std::string MakeTerm(Draw& draw) {
  const size_t context = draw.Below(10);
  if (context < 3) return "(*, " + MakeKeywords(draw, false) + ")";
  const std::string tag = context < 8 ? draw.Pick(kTags) : draw.Pick(kRoots);
  if (draw.Chance(40)) return "(" + tag + ", *)";
  return "(" + tag + ", " + MakeKeywords(draw, true) + ")";
}

}  // namespace

Status MicroCollection::Populate(store::DocumentStore* store) const {
  for (size_t d = 0; d < documents.size(); ++d) {
    Result<store::DocId> added =
        store->AddXml(documents[d], "micro-" + std::to_string(d));
    if (!added.ok()) return added.status();
  }
  return Status::OK();
}

MicroCollection GenerateMicroCollection(uint64_t seed) {
  Draw draw(seed);
  MicroCollection out;
  const size_t docs = 10 + draw.Below(31);
  std::vector<std::string> ids;
  std::vector<Element*> referrers;
  std::vector<std::unique_ptr<Element>> roots;
  for (size_t d = 0; d < docs; ++d) {
    roots.push_back(MakeElement(draw, draw.Pick(kRoots), 1, d, &ids, &referrers));
  }
  for (Element* referrer : referrers) referrer->idref = ids[draw.Below(ids.size())];
  for (const auto& root : roots) {
    std::string xml;
    Write(*root, &xml);
    out.documents.push_back(std::move(xml));
  }
  const size_t queries = 6;
  for (size_t q = 0; q < queries; ++q) {
    const size_t terms = 1 + draw.Below(3);
    std::string text;
    for (size_t t = 0; t < terms; ++t) {
      if (t > 0) text += " AND ";
      text += MakeTerm(draw);
    }
    out.queries.push_back(std::move(text));
  }
  return out;
}

}  // namespace seda::reference
