#include "api/wire.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <type_traits>

#include "common/check.h"

namespace seda::api {

// --- Json: constructors and accessors -----------------------------------

Json Json::Bool(bool b) {
  Json v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Json Json::Uint(uint64_t u) {
  Json v;
  v.kind_ = Kind::kUint;
  v.uint_ = u;
  return v;
}

Json Json::Double(double d) {
  if (!std::isfinite(d)) return Json();  // null: JSON has no NaN/Inf
  Json v;
  v.kind_ = Kind::kDouble;
  v.double_ = d;
  return v;
}

Json Json::Str(std::string s) {
  Json v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Json Json::Array() {
  Json v;
  v.kind_ = Kind::kArray;
  return v;
}

Json Json::Object() {
  Json v;
  v.kind_ = Kind::kObject;
  return v;
}

bool Json::AsBool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

uint64_t Json::AsUint(uint64_t fallback) const {
  if (kind_ == Kind::kUint) return uint_;
  if (kind_ == Kind::kDouble && double_ >= 0 &&
      double_ <= 18446744073709549568.0 && double_ == std::floor(double_)) {
    return static_cast<uint64_t>(double_);
  }
  return fallback;
}

double Json::AsDouble(double fallback) const {
  if (kind_ == Kind::kDouble) return double_;
  if (kind_ == Kind::kUint) return static_cast<double>(uint_);
  return fallback;
}

const std::string& Json::AsString() const {
  static const std::string kEmpty;
  return kind_ == Kind::kString ? string_ : kEmpty;
}

void Json::Append(Json value) {
  if (kind_ != Kind::kArray) {
    kind_ = Kind::kArray;
    array_.clear();
  }
  array_.push_back(std::move(value));
}

size_t Json::size() const { return array_.size(); }

const Json& Json::at(size_t i) const {
  static const Json kNullValue;
  return i < array_.size() ? array_[i] : kNullValue;
}

void Json::Set(const std::string& key, Json value) {
  if (kind_ != Kind::kObject) {
    kind_ = Kind::kObject;
    object_.clear();
  }
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(key, std::move(value));
}

const Json* Json::Find(const std::string& key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  return object_;
}

// --- Json: canonical writer ---------------------------------------------

namespace {

void WriteEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));  // UTF-8 passthrough
        }
    }
  }
  out->push_back('"');
}

void WriteValue(const Json& v, std::string* out) {
  switch (v.kind()) {
    case Json::Kind::kNull:
      *out += "null";
      break;
    case Json::Kind::kBool:
      *out += v.AsBool() ? "true" : "false";
      break;
    case Json::Kind::kUint: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(v.AsUint()));
      *out += buf;
      break;
    }
    case Json::Kind::kDouble: {
      // Encode-side contract: JSON has no NaN/Infinity, and no engine score
      // or statistic should ever be non-finite — a NaN here means a scoring
      // bug upstream, not a wire problem.
      SEDA_DCHECK(std::isfinite(v.AsDouble()))
          << "non-finite double on the wire";
      // %.17g round-trips every finite double exactly, making the canonical
      // encoding byte-stable across encode/decode cycles.
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
      *out += buf;
      break;
    }
    case Json::Kind::kString:
      WriteEscaped(v.AsString(), out);
      break;
    case Json::Kind::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out->push_back(',');
        WriteValue(v.at(i), out);
      }
      out->push_back(']');
      break;
    }
    case Json::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) out->push_back(',');
        first = false;
        WriteEscaped(key, out);
        out->push_back(':');
        WriteValue(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

std::string Json::Write() const {
  std::string out;
  WriteValue(*this, &out);
  return out;
}

// --- Json: parser --------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> Parse() {
    SkipSpace();
    Json value;
    SEDA_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing input after JSON value");
    }
    return value;
  }

 private:
  static constexpr size_t kMaxDepth = 96;

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(Json* out, size_t depth) {
    if (depth > kMaxDepth) return Error("JSON nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of JSON");
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': return ParseString(out);
      case 't':
        if (text_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          *out = Json::Bool(true);
          return Status::OK();
        }
        return Error("invalid literal");
      case 'f':
        if (text_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          *out = Json::Bool(false);
          return Status::OK();
        }
        return Error("invalid literal");
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          *out = Json::Null();
          return Status::OK();
        }
        return Error("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Error(std::string("unexpected character '") + c + "'");
    }
  }

  Status ParseObject(Json* out, size_t depth) {
    ++pos_;  // '{'
    *out = Json::Object();
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      Json key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      SEDA_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipSpace();
      Json value;
      SEDA_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(key.AsString(), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(Json* out, size_t depth) {
    ++pos_;  // '['
    *out = Json::Array();
    SkipSpace();
    if (Consume(']')) return Status::OK();
    while (true) {
      SkipSpace();
      Json value;
      SEDA_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Append(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(Json* out) {
    ++pos_;  // '"'
    std::string value;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        *out = Json::Str(std::move(value));
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': value.push_back('"'); break;
          case '\\': value.push_back('\\'); break;
          case '/': value.push_back('/'); break;
          case 'b': value.push_back('\b'); break;
          case 'f': value.push_back('\f'); break;
          case 'n': value.push_back('\n'); break;
          case 'r': value.push_back('\r'); break;
          case 't': value.push_back('\t'); break;
          case 'u': {
            uint32_t code = 0;
            SEDA_RETURN_IF_ERROR(ParseHex4(&code));
            if (code >= 0xD800 && code <= 0xDBFF) {
              // A high surrogate is only valid as the first half of a pair;
              // a lone one would encode to ill-formed UTF-8 (CESU-8).
              if (text_.compare(pos_, 2, "\\u") != 0) {
                return Error("lone high surrogate in \\u escape");
              }
              pos_ += 2;
              uint32_t low = 0;
              SEDA_RETURN_IF_ERROR(ParseHex4(&low));
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              return Error("lone low surrogate in \\u escape");
            }
            AppendUtf8(code, &value);
            break;
          }
          default:
            return Error("invalid escape character");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      value.push_back(c);
      ++pos_;
    }
    return Error("unterminated string");
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
      else return Error("invalid hex digit in \\u escape");
    }
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseNumber(Json* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    bool is_double = false;
    if (Consume('.')) {
      is_double = true;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return Error("invalid number");
    if (!is_double && token[0] != '-') {
      errno = 0;
      char* end = nullptr;
      unsigned long long u = std::strtoull(token.c_str(), &end, 10);
      if (errno == ERANGE || end != token.c_str() + token.size()) {
        return Error("integer out of range");
      }
      *out = Json::Uint(u);
      return Status::OK();
    }
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("invalid number");
    *out = Json::Double(d);
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).Parse();
}

// --- WireStatus <-> Status ----------------------------------------------

WireStatus WireStatus::FromStatus(const Status& status) {
  WireStatus wire;
  wire.code = StatusCodeName(status.code());
  wire.message = status.message();
  return wire;
}

Status WireStatus::ToStatus() const {
  if (ok()) return Status::OK();
  static constexpr StatusCode kCodes[] = {
      StatusCode::kInvalidArgument, StatusCode::kNotFound,
      StatusCode::kAlreadyExists,   StatusCode::kParseError,
      StatusCode::kOutOfRange,      StatusCode::kFailedPrecondition,
      StatusCode::kInternal,        StatusCode::kUnimplemented,
      StatusCode::kIoError,         StatusCode::kUnavailable};
  for (StatusCode candidate : kCodes) {
    if (code == StatusCodeName(candidate)) {
      switch (candidate) {
        case StatusCode::kInvalidArgument: return Status::InvalidArgument(message);
        case StatusCode::kNotFound: return Status::NotFound(message);
        case StatusCode::kAlreadyExists: return Status::AlreadyExists(message);
        case StatusCode::kParseError: return Status::ParseError(message);
        case StatusCode::kOutOfRange: return Status::OutOfRange(message);
        case StatusCode::kFailedPrecondition:
          return Status::FailedPrecondition(message);
        case StatusCode::kInternal: return Status::Internal(message);
        case StatusCode::kUnimplemented: return Status::Unimplemented(message);
        case StatusCode::kIoError: return Status::IoError(message);
        case StatusCode::kUnavailable: return Status::Unavailable(message);
        default: break;
      }
    }
  }
  return Status::Internal("unknown wire status code '" + code +
                          "': " + message);
}

// --- DTO codecs ----------------------------------------------------------
// Each wire type has one field list: (key, member, rule) entries in wire
// order. One generic encoder and one generic decoder walk it; the value
// codecs key on the member's C++ type.

namespace {

/// Per-field special cases; every other field is kPlain.
enum Rule {
  kPlain,
  /// Omitted from the encoding at its default, so untraced requests and
  /// responses keep their pre-tracing bytes and spans drop empty parts.
  kOmitDefault,
  /// A decoded empty string falls back to the struct default.
  kEmptyIsDefault,
};

template <typename T, typename M, Rule R>
struct FieldSpec {
  const char* key;
  M T::*member;
};

template <Rule R = kPlain, typename T, typename M>
constexpr FieldSpec<T, M, R> Field(const char* key, M T::*member) {
  return {key, member};
}

/// A counter as an ordered {"name","value"} object: an array of these keeps
/// the source's order and duplicate names, which a JSON object would merge.
using NamedCount = std::pair<std::string, uint64_t>;

// --- Field lists ----------------------------------------------------------

constexpr auto FieldsOf(const NamedCount*) {
  return std::tuple(Field("name", &NamedCount::first),
                    Field("value", &NamedCount::second));
}

constexpr auto FieldsOf(const WireStatus*) {
  return std::tuple(Field<kEmptyIsDefault>("code", &WireStatus::code),
                    Field("message", &WireStatus::message));
}

#define SEDA_COUNTER_FIELD(field, type, metric, help) \
  , Field(#field, &StatsDto::field)
constexpr auto FieldsOf(const StatsDto*) {
  return std::tuple(Field("epoch", &StatsDto::epoch),
                    Field("elapsed_ms", &StatsDto::elapsed_ms),
                    Field("deadline_ms", &StatsDto::deadline_ms),
                    Field("deadline_exceeded", &StatsDto::deadline_exceeded)
                        SEDA_ENGINE_COUNTERS(SEDA_COUNTER_FIELD));
}
#undef SEDA_COUNTER_FIELD

constexpr auto FieldsOf(const NodeRefDto*) {
  return std::tuple(Field("doc", &NodeRefDto::doc),
                    Field("dewey", &NodeRefDto::dewey),
                    Field("path", &NodeRefDto::path),
                    Field("content", &NodeRefDto::content));
}

constexpr auto FieldsOf(const TupleDto*) {
  return std::tuple(Field("nodes", &TupleDto::nodes),
                    Field("content_score", &TupleDto::content_score),
                    Field("connection_size", &TupleDto::connection_size),
                    Field("score", &TupleDto::score));
}

constexpr auto FieldsOf(const ContextEntryDto*) {
  return std::tuple(Field("path", &ContextEntryDto::path),
                    Field("doc_count", &ContextEntryDto::doc_count),
                    Field("node_count", &ContextEntryDto::node_count));
}

constexpr auto FieldsOf(const ContextBucketDto*) {
  return std::tuple(Field("term", &ContextBucketDto::term),
                    Field("entries", &ContextBucketDto::entries));
}

constexpr auto FieldsOf(const ConnectionStepDto*) {
  return std::tuple(Field("move", &ConnectionStepDto::move),
                    Field("path", &ConnectionStepDto::path),
                    Field("label", &ConnectionStepDto::label));
}

constexpr auto FieldsOf(const ConnectionDto*) {
  return std::tuple(Field("term_a", &ConnectionDto::term_a),
                    Field("term_b", &ConnectionDto::term_b),
                    Field("from_path", &ConnectionDto::from_path),
                    Field("to_path", &ConnectionDto::to_path),
                    Field("steps", &ConnectionDto::steps),
                    Field("instance_count", &ConnectionDto::instance_count),
                    Field("false_positive", &ConnectionDto::false_positive));
}

constexpr auto FieldsOf(const CreateSessionRequest*) {
  return std::tuple(Field("session_id", &CreateSessionRequest::session_id),
                    Field("ttl_ms", &CreateSessionRequest::ttl_ms));
}

constexpr auto FieldsOf(const CreateSessionResponse*) {
  return std::tuple(Field("status", &CreateSessionResponse::status),
                    Field("session_id", &CreateSessionResponse::session_id),
                    Field("epoch", &CreateSessionResponse::epoch));
}

constexpr auto FieldsOf(const CloseSessionRequest*) {
  return std::tuple(Field("session_id", &CloseSessionRequest::session_id));
}

constexpr auto FieldsOf(const CloseSessionResponse*) {
  return std::tuple(Field("status", &CloseSessionResponse::status));
}

constexpr auto FieldsOf(const SearchRequest*) {
  return std::tuple(Field("session_id", &SearchRequest::session_id),
                    Field("query", &SearchRequest::query),
                    Field("k", &SearchRequest::k),
                    Field("deadline_ms", &SearchRequest::deadline_ms),
                    Field<kOmitDefault>("trace", &SearchRequest::trace));
}

constexpr auto FieldsOf(const SearchResponseDto*) {
  return std::tuple(Field("status", &SearchResponseDto::status),
                    Field("topk", &SearchResponseDto::topk),
                    Field("contexts", &SearchResponseDto::contexts),
                    Field("connections", &SearchResponseDto::connections),
                    Field("stats", &SearchResponseDto::stats),
                    Field<kOmitDefault>("trace", &SearchResponseDto::trace));
}

constexpr auto FieldsOf(const RefineRequest*) {
  return std::tuple(Field("session_id", &RefineRequest::session_id),
                    Field("chosen_paths", &RefineRequest::chosen_paths),
                    Field("k", &RefineRequest::k),
                    Field("deadline_ms", &RefineRequest::deadline_ms),
                    Field<kOmitDefault>("trace", &RefineRequest::trace));
}

constexpr auto FieldsOf(const CompleteRequest*) {
  return std::tuple(Field("session_id", &CompleteRequest::session_id),
                    Field("term_paths", &CompleteRequest::term_paths),
                    Field("connections", &CompleteRequest::connections),
                    Field("deadline_ms", &CompleteRequest::deadline_ms),
                    Field<kOmitDefault>("trace", &CompleteRequest::trace));
}

constexpr auto FieldsOf(const CompleteResponseDto*) {
  return std::tuple(
      Field("status", &CompleteResponseDto::status),
      Field("tuples", &CompleteResponseDto::tuples),
      Field("twig_count", &CompleteResponseDto::twig_count),
      Field("cross_twig_joins", &CompleteResponseDto::cross_twig_joins),
      Field("stats", &CompleteResponseDto::stats),
      Field<kOmitDefault>("trace", &CompleteResponseDto::trace));
}

constexpr auto FieldsOf(const CubeRequest*) {
  return std::tuple(
      Field("session_id", &CubeRequest::session_id),
      Field("add_facts", &CubeRequest::add_facts),
      Field("remove_facts", &CubeRequest::remove_facts),
      Field("add_dimensions", &CubeRequest::add_dimensions),
      Field("remove_dimensions", &CubeRequest::remove_dimensions),
      Field("merge_fact_tables", &CubeRequest::merge_fact_tables),
      Field("group_dims", &CubeRequest::group_dims),
      Field<kEmptyIsDefault>("agg_fn", &CubeRequest::agg_fn),
      Field("measure", &CubeRequest::measure),
      Field("deadline_ms", &CubeRequest::deadline_ms),
      Field<kOmitDefault>("trace", &CubeRequest::trace));
}

constexpr auto FieldsOf(const TableDto*) {
  return std::tuple(Field("name", &TableDto::name),
                    Field("columns", &TableDto::columns),
                    Field("key_columns", &TableDto::key_columns),
                    Field("rows", &TableDto::rows));
}

constexpr auto FieldsOf(const CellDto*) {
  return std::tuple(Field("group", &CellDto::group),
                    Field("value", &CellDto::value),
                    Field("count", &CellDto::count));
}

constexpr auto FieldsOf(const CubeResponseDto*) {
  return std::tuple(
      Field("status", &CubeResponseDto::status),
      Field("fact_tables", &CubeResponseDto::fact_tables),
      Field("dimension_tables", &CubeResponseDto::dimension_tables),
      Field("warnings", &CubeResponseDto::warnings),
      Field("cells", &CubeResponseDto::cells),
      Field("cell_total", &CubeResponseDto::cell_total),
      Field("stats", &CubeResponseDto::stats),
      Field<kOmitDefault>("trace", &CubeResponseDto::trace));
}

constexpr auto FieldsOf(const MethodStatsDto*) {
  return std::tuple(
      Field("method", &MethodStatsDto::method),
      Field("count", &MethodStatsDto::count),
      Field("errors", &MethodStatsDto::errors),
      Field("deadline_exceeded", &MethodStatsDto::deadline_exceeded),
      Field("total_ms", &MethodStatsDto::total_ms),
      Field("latency_buckets", &MethodStatsDto::latency_buckets));
}

constexpr auto FieldsOf(const StatzRequest*) { return std::tuple(); }

constexpr auto FieldsOf(const StatzResponse*) {
  return std::tuple(
      Field("status", &StatzResponse::status),
      Field("epoch", &StatzResponse::epoch),
      Field("sessions", &StatzResponse::sessions),
      Field("sessions_created", &StatzResponse::sessions_created),
      Field("sessions_evicted", &StatzResponse::sessions_evicted),
      Field("uptime_ms", &StatzResponse::uptime_ms),
      Field("bucket_bounds_ms", &StatzResponse::bucket_bounds_ms),
      Field("methods", &StatzResponse::methods),
      Field("cumulative", &StatzResponse::cumulative),
      Field("transport", &StatzResponse::transport));
}

constexpr auto FieldsOf(const MetriczRequest*) { return std::tuple(); }

constexpr auto FieldsOf(const MetriczResponse*) {
  return std::tuple(Field("status", &MetriczResponse::status),
                    Field("text", &MetriczResponse::text));
}

constexpr auto FieldsOf(const SlowlogRequest*) {
  return std::tuple(Field("limit", &SlowlogRequest::limit));
}

constexpr auto FieldsOf(const SlowlogResponse*) {
  return std::tuple(Field("status", &SlowlogResponse::status),
                    Field("total_logged", &SlowlogResponse::total_logged),
                    Field("entries", &SlowlogResponse::entries));
}

constexpr auto FieldsOf(const SpanNode*) {
  return std::tuple(Field("name", &SpanNode::name),
                    Field("start_us", &SpanNode::start_us),
                    Field("elapsed_us", &SpanNode::elapsed_us),
                    Field<kOmitDefault>("unix_ms", &SpanNode::unix_ms),
                    Field<kOmitDefault>("counters", &SpanNode::counters),
                    Field<kOmitDefault>("children", &SpanNode::children));
}

constexpr auto FieldsOf(const SlowLogEntry*) {
  return std::tuple(
      Field("seq", &SlowLogEntry::seq),
      Field("unix_ms", &SlowLogEntry::unix_ms),
      Field("method", &SlowLogEntry::method),
      Field("session_id", &SlowLogEntry::session_id),
      Field("detail", &SlowLogEntry::detail),
      Field("elapsed_ms", &SlowLogEntry::elapsed_ms),
      Field("threshold_ms", &SlowLogEntry::threshold_ms),
      Field("status_code", &SlowLogEntry::status_code),
      Field("deadline_exceeded", &SlowLogEntry::deadline_exceeded),
      Field("sampled", &SlowLogEntry::sampled),
      Field<kOmitDefault>("trace", &SlowLogEntry::trace));
}

// --- Generic codec --------------------------------------------------------

template <typename T>
struct IsVector : std::false_type {};
template <typename E>
struct IsVector<std::vector<E>> : std::true_type {};

/// An unnamed span is "no trace" (the requests that did not ask for one).
bool IsDefault(const SpanNode& span) { return span.name.empty(); }
template <typename M>
bool IsDefault(const M& value) {
  if constexpr (IsVector<M>::value) {
    return value.empty();
  } else {
    return value == M{};
  }
}

/// A span tree nests two JSON levels per span, and its encoding fills in
/// keys an input may leave out, so a tree that just fits the parser's depth
/// limit would re-encode past it. Decoding keeps kMaxSpanDepth levels (far
/// more than any recorded trace) so every decoded tree re-encodes to JSON
/// that decodes again.
constexpr size_t kMaxSpanDepth = 32;

void PruneSpans(SpanNode* span, size_t depth) {
  if (depth == kMaxSpanDepth) {
    span->children.clear();
    return;
  }
  for (SpanNode& child : span->children) PruneSpans(&child, depth + 1);
}

template <typename T>
Json ValueToJson(const T& v);
template <typename T>
void ReadValue(const Json& json, T* out);

template <typename T, typename M, Rule R>
void EncodeField(const T& v, const FieldSpec<T, M, R>& field, Json* object) {
  const M& value = v.*field.member;
  if constexpr (R == kOmitDefault) {
    if (IsDefault(value)) return;
  }
  object->Set(field.key, ValueToJson(value));
}

template <typename T, typename M, Rule R>
void DecodeField(const Json& object, const FieldSpec<T, M, R>& field, T* v) {
  const Json* value = object.Find(field.key);
  if (value == nullptr) return;  // absent: the struct default stays
  M& member = v->*field.member;
  ReadValue(*value, &member);
  if constexpr (R == kEmptyIsDefault) {
    if (member.empty()) member = T{}.*field.member;
  }
}

template <typename T>
Json ValueToJson(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return Json::Bool(v);
  } else if constexpr (std::is_integral_v<T>) {
    return Json::Uint(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return Json::Double(v);  // non-finite encodes as null
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Json::Str(v);
  } else if constexpr (IsVector<T>::value) {
    Json array = Json::Array();
    for (const auto& element : v) array.Append(ValueToJson(element));
    return array;
  } else {
    Json object = Json::Object();
    std::apply(
        [&](const auto&... field) { (EncodeField(v, field, &object), ...); },
        FieldsOf(&v));
    return object;
  }
}

/// Reads `json` into `*out`, which holds the default; a value of the wrong
/// kind leaves it there.
template <typename T>
void ReadValue(const Json& json, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    *out = json.AsBool(*out);
  } else if constexpr (std::is_integral_v<T>) {
    *out = static_cast<T>(json.AsUint(*out));
  } else if constexpr (std::is_same_v<T, double>) {
    // null is an encoded NaN: JSON has no NaN literal.
    *out = json.is_null() ? std::nan("") : json.AsDouble(*out);
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (json.kind() == Json::Kind::kString) *out = json.AsString();
  } else if constexpr (IsVector<T>::value) {
    if (json.kind() != Json::Kind::kArray) return;
    *out = T(json.size());
    for (size_t i = 0; i < json.size(); ++i) ReadValue(json.at(i), &(*out)[i]);
  } else {
    std::apply(
        [&](const auto&... field) { (DecodeField(json, field, out), ...); },
        FieldsOf(out));
    if constexpr (std::is_same_v<T, SpanNode>) PruneSpans(out, 0);
  }
}

template <typename T>
T ObjectFromJson(const Json& json) {
  T v{};
  ReadValue(json, &v);
  return v;
}

/// Strict parse + object check, shared by every string-level decoder.
template <typename T>
Result<T> DecodeObject(const std::string& text, const char* what) {
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value().kind() != Json::Kind::kObject) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a JSON object");
  }
  return ObjectFromJson<T>(parsed.value());
}

}  // namespace

#define SEDA_WIRE_DEFINE_CODEC(Type)                                   \
  Json ToJson(const Type& v) { return ValueToJson(v); }                \
  Type Type##FromJson(const Json& json) {                              \
    return ObjectFromJson<Type>(json);                                 \
  }                                                                    \
  std::string Encode(const Type& v) { return ValueToJson(v).Write(); } \
  Result<Type> Decode##Type(const std::string& json) {                 \
    return DecodeObject<Type>(json, #Type);                            \
  }

SEDA_WIRE_TYPES(SEDA_WIRE_DEFINE_CODEC)

#undef SEDA_WIRE_DEFINE_CODEC

}  // namespace seda::api
