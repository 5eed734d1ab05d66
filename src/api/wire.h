#ifndef SEDA_API_WIRE_H_
#define SEDA_API_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/dto.h"
#include "common/status.h"

namespace seda::api {

/// Minimal JSON document model for the wire format. Self-contained (the
/// container ships no JSON dependency) and *canonical*: writers emit compact
/// JSON with encoder-fixed key order, integers without exponent/decimal
/// point, doubles via %.17g (which round-trips every finite double exactly),
/// and a fixed escape policy — so for every DTO,
/// Encode(Decode(Encode(x))) == Encode(x) byte for byte. That stability is
/// what lets tests, logs and caches compare responses as strings.
class Json {
 public:
  enum class Kind { kNull, kBool, kUint, kDouble, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Uint(uint64_t u);
  /// Non-finite doubles encode as null (JSON has no NaN/Inf).
  static Json Double(double d);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  // Typed readers; they coerce where lossless (Uint -> Double) and return
  // the fallback otherwise — DTO decoders validate presence separately.
  bool AsBool(bool fallback = false) const;
  uint64_t AsUint(uint64_t fallback = 0) const;
  double AsDouble(double fallback = 0) const;
  const std::string& AsString() const;  ///< empty for non-strings

  // Array access.
  void Append(Json value);
  size_t size() const;
  const Json& at(size_t i) const;  ///< Null sentinel when out of range

  // Object access: insertion-ordered keys (canonical encoding preserves the
  // encoder's field order).
  void Set(const std::string& key, Json value);
  const Json* Find(const std::string& key) const;  ///< nullptr when absent
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Compact canonical serialization.
  std::string Write() const;

  /// Strict parser (UTF-8 passthrough, \uXXXX escapes, no trailing input).
  /// Errors carry the byte offset of the failure.
  static Result<Json> Parse(const std::string& text);

 private:
  Kind kind_;
  bool bool_ = false;
  uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

// --- DTO codecs ---------------------------------------------------------
// Every wire type encodes to one canonical JSON object and decodes from it.
// Decoders are strict about malformed JSON and non-object documents, and
// lenient inside the object: an absent or wrong-kind field keeps the struct
// default. A non-finite double encodes as null and null decodes as NaN, so
// the round trip holds for every double. Each type's keys, in wire order,
// live in one field list in wire.cc; adding a wire type means one line here
// plus its field list.

// obs plain-data types embedded in responses (span trees, slow-log rows).
using obs::SlowLogEntry;
using obs::SpanNode;

#define SEDA_WIRE_TYPES(X)                                                    \
  X(WireStatus)                                                               \
  X(StatsDto)                                                                 \
  X(NodeRefDto)                                                               \
  X(TupleDto)                                                                 \
  X(ContextEntryDto)                                                          \
  X(ContextBucketDto)                                                         \
  X(ConnectionStepDto)                                                        \
  X(ConnectionDto)                                                            \
  X(CreateSessionRequest)                                                     \
  X(CreateSessionResponse)                                                    \
  X(CloseSessionRequest)                                                      \
  X(CloseSessionResponse)                                                     \
  X(SearchRequest)                                                            \
  X(SearchResponseDto)                                                        \
  X(RefineRequest)                                                            \
  X(CompleteRequest)                                                          \
  X(CompleteResponseDto)                                                      \
  X(CubeRequest)                                                              \
  X(TableDto)                                                                 \
  X(CellDto)                                                                  \
  X(CubeResponseDto)                                                          \
  X(MethodStatsDto)                                                           \
  X(StatzRequest)                                                             \
  X(StatzResponse)                                                            \
  X(MetriczRequest)                                                           \
  X(MetriczResponse)                                                          \
  X(SlowlogRequest)                                                           \
  X(SlowlogResponse)                                                          \
  X(SpanNode)                                                                 \
  X(SlowLogEntry)

/// Per type: the string pair `Encode` / `Decode<Type>`, and the Json-level
/// pair `ToJson` / `<Type>FromJson` for composing DTOs into envelopes (the
/// service's Handle() dispatch uses these).
#define SEDA_WIRE_DECLARE_CODEC(Type)                 \
  std::string Encode(const Type& v);                  \
  Result<Type> Decode##Type(const std::string& json); \
  Json ToJson(const Type& v);                         \
  Type Type##FromJson(const Json& json);

SEDA_WIRE_TYPES(SEDA_WIRE_DECLARE_CODEC)

#undef SEDA_WIRE_DECLARE_CODEC

}  // namespace seda::api

#endif  // SEDA_API_WIRE_H_
