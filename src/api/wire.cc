#include "api/wire.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

namespace {

/// Canonical encoding for string lists and nested string lists.
Json StringsToJson(const std::vector<std::string>& values) {
  Json array = Json::Array();
  for (const std::string& v : values) array.Append(Json::Str(v));
  return array;
}

std::vector<std::string> StringsFromJson(const Json* json) {
  std::vector<std::string> out;
  if (json == nullptr) return out;
  out.reserve(json->size());
  for (size_t i = 0; i < json->size(); ++i) out.push_back(json->at(i).AsString());
  return out;
}

template <typename T, typename Fn>
Json ListToJson(const std::vector<T>& values, Fn&& to_json) {
  Json array = Json::Array();
  for (const T& v : values) array.Append(to_json(v));
  return array;
}

template <typename T, typename Fn>
std::vector<T> ListFromJson(const Json* json, Fn&& from_json) {
  std::vector<T> out;
  if (json == nullptr) return out;
  out.reserve(json->size());
  for (size_t i = 0; i < json->size(); ++i) out.push_back(from_json(json->at(i)));
  return out;
}

uint64_t UintField(const Json& json, const char* key) {
  const Json* v = json.Find(key);
  return v != nullptr ? v->AsUint() : 0;
}

double DoubleField(const Json& json, const char* key) {
  const Json* v = json.Find(key);
  return v != nullptr ? v->AsDouble() : 0;
}

bool BoolField(const Json& json, const char* key, bool fallback = false) {
  const Json* v = json.Find(key);
  return v != nullptr ? v->AsBool(fallback) : fallback;
}

/// Engine-counter codec (topk/engine_counters.h): counters are unsigned,
/// the early_terminated flag is a bool.
Json CounterJson(uint64_t v) { return Json::Uint(v); }
Json CounterJson(bool v) { return Json::Bool(v); }
void ReadCounter(const Json& json, const char* key, uint64_t* out) {
  *out = UintField(json, key);
}
void ReadCounter(const Json& json, const char* key, bool* out) {
  *out = BoolField(json, key);
}

std::string StringField(const Json& json, const char* key) {
  const Json* v = json.Find(key);
  return v != nullptr ? v->AsString() : std::string();
}

/// Shared by every string-level decoder: strict parse + object check.
template <typename T, typename Fn>
Result<T> DecodeObject(const std::string& json, const char* what, Fn&& from_json) {
  auto parsed = Json::Parse(json);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value().kind() != Json::Kind::kObject) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a JSON object");
  }
  return from_json(parsed.value());
}

}  // namespace

Json ToJson(const WireStatus& v) {
  Json json = Json::Object();
  json.Set("code", Json::Str(v.code));
  json.Set("message", Json::Str(v.message));
  return json;
}

WireStatus WireStatusFromJson(const Json& json) {
  WireStatus v;
  v.code = StringField(json, "code");
  if (v.code.empty()) v.code = "OK";
  v.message = StringField(json, "message");
  return v;
}

Json ToJson(const StatsDto& v) {
  Json json = Json::Object();
  json.Set("epoch", Json::Uint(v.epoch));
  json.Set("elapsed_ms", Json::Double(v.elapsed_ms));
  json.Set("deadline_ms", Json::Uint(v.deadline_ms));
  json.Set("deadline_exceeded", Json::Bool(v.deadline_exceeded));
#define SEDA_COUNTER_TO_JSON(field, merge, metric, help) \
  json.Set(#field, CounterJson(v.field));
  SEDA_ENGINE_COUNTERS(SEDA_COUNTER_TO_JSON)
#undef SEDA_COUNTER_TO_JSON
  return json;
}

StatsDto StatsDtoFromJson(const Json& json) {
  StatsDto v;
  v.epoch = UintField(json, "epoch");
  v.elapsed_ms = DoubleField(json, "elapsed_ms");
  v.deadline_ms = UintField(json, "deadline_ms");
  v.deadline_exceeded = BoolField(json, "deadline_exceeded");
#define SEDA_COUNTER_FROM_JSON(field, merge, metric, help) \
  ReadCounter(json, #field, &v.field);
  SEDA_ENGINE_COUNTERS(SEDA_COUNTER_FROM_JSON)
#undef SEDA_COUNTER_FROM_JSON
  return v;
}

Json ToJson(const NodeRefDto& v) {
  Json json = Json::Object();
  json.Set("doc", Json::Uint(v.doc));
  json.Set("dewey", Json::Str(v.dewey));
  json.Set("path", Json::Str(v.path));
  json.Set("content", Json::Str(v.content));
  return json;
}

NodeRefDto NodeRefDtoFromJson(const Json& json) {
  NodeRefDto v;
  v.doc = static_cast<uint32_t>(UintField(json, "doc"));
  v.dewey = StringField(json, "dewey");
  v.path = StringField(json, "path");
  v.content = StringField(json, "content");
  return v;
}

Json ToJson(const TupleDto& v) {
  Json json = Json::Object();
  json.Set("nodes", ListToJson(v.nodes, [](const NodeRefDto& n) {
    return ToJson(n);
  }));
  json.Set("content_score", Json::Double(v.content_score));
  json.Set("connection_size", Json::Uint(v.connection_size));
  json.Set("score", Json::Double(v.score));
  return json;
}

TupleDto TupleDtoFromJson(const Json& json) {
  TupleDto v;
  v.nodes = ListFromJson<NodeRefDto>(json.Find("nodes"), NodeRefDtoFromJson);
  v.content_score = DoubleField(json, "content_score");
  v.connection_size = UintField(json, "connection_size");
  v.score = DoubleField(json, "score");
  return v;
}

Json ToJson(const ContextEntryDto& v) {
  Json json = Json::Object();
  json.Set("path", Json::Str(v.path));
  json.Set("doc_count", Json::Uint(v.doc_count));
  json.Set("node_count", Json::Uint(v.node_count));
  return json;
}

ContextEntryDto ContextEntryDtoFromJson(const Json& json) {
  ContextEntryDto v;
  v.path = StringField(json, "path");
  v.doc_count = UintField(json, "doc_count");
  v.node_count = UintField(json, "node_count");
  return v;
}

Json ToJson(const ContextBucketDto& v) {
  Json json = Json::Object();
  json.Set("term", Json::Str(v.term));
  json.Set("entries", ListToJson(v.entries, [](const ContextEntryDto& e) {
    return ToJson(e);
  }));
  return json;
}

ContextBucketDto ContextBucketDtoFromJson(const Json& json) {
  ContextBucketDto v;
  v.term = StringField(json, "term");
  v.entries =
      ListFromJson<ContextEntryDto>(json.Find("entries"), ContextEntryDtoFromJson);
  return v;
}

Json ToJson(const ConnectionStepDto& v) {
  Json json = Json::Object();
  json.Set("move", Json::Str(v.move));
  json.Set("path", Json::Str(v.path));
  json.Set("label", Json::Str(v.label));
  return json;
}

ConnectionStepDto ConnectionStepDtoFromJson(const Json& json) {
  ConnectionStepDto v;
  v.move = StringField(json, "move");
  v.path = StringField(json, "path");
  v.label = StringField(json, "label");
  return v;
}

Json ToJson(const ConnectionDto& v) {
  Json json = Json::Object();
  json.Set("term_a", Json::Uint(v.term_a));
  json.Set("term_b", Json::Uint(v.term_b));
  json.Set("from_path", Json::Str(v.from_path));
  json.Set("to_path", Json::Str(v.to_path));
  json.Set("steps", ListToJson(v.steps, [](const ConnectionStepDto& s) {
    return ToJson(s);
  }));
  json.Set("instance_count", Json::Uint(v.instance_count));
  json.Set("false_positive", Json::Bool(v.false_positive));
  return json;
}

ConnectionDto ConnectionDtoFromJson(const Json& json) {
  ConnectionDto v;
  v.term_a = UintField(json, "term_a");
  v.term_b = UintField(json, "term_b");
  v.from_path = StringField(json, "from_path");
  v.to_path = StringField(json, "to_path");
  v.steps = ListFromJson<ConnectionStepDto>(json.Find("steps"),
                                            ConnectionStepDtoFromJson);
  v.instance_count = UintField(json, "instance_count");
  v.false_positive = BoolField(json, "false_positive");
  return v;
}

Json ToJson(const CreateSessionRequest& v) {
  Json json = Json::Object();
  json.Set("session_id", Json::Str(v.session_id));
  json.Set("ttl_ms", Json::Uint(v.ttl_ms));
  return json;
}

CreateSessionRequest CreateSessionRequestFromJson(const Json& json) {
  CreateSessionRequest v;
  v.session_id = StringField(json, "session_id");
  v.ttl_ms = UintField(json, "ttl_ms");
  return v;
}

Json ToJson(const CreateSessionResponse& v) {
  Json json = Json::Object();
  json.Set("status", ToJson(v.status));
  json.Set("session_id", Json::Str(v.session_id));
  json.Set("epoch", Json::Uint(v.epoch));
  return json;
}

CreateSessionResponse CreateSessionResponseFromJson(const Json& json) {
  CreateSessionResponse v;
  const Json* status = json.Find("status");
  if (status != nullptr) v.status = WireStatusFromJson(*status);
  v.session_id = StringField(json, "session_id");
  v.epoch = UintField(json, "epoch");
  return v;
}

Json ToJson(const CloseSessionRequest& v) {
  Json json = Json::Object();
  json.Set("session_id", Json::Str(v.session_id));
  return json;
}

CloseSessionRequest CloseSessionRequestFromJson(const Json& json) {
  CloseSessionRequest v;
  v.session_id = StringField(json, "session_id");
  return v;
}

Json ToJson(const CloseSessionResponse& v) {
  Json json = Json::Object();
  json.Set("status", ToJson(v.status));
  return json;
}

CloseSessionResponse CloseSessionResponseFromJson(const Json& json) {
  CloseSessionResponse v;
  const Json* status = json.Find("status");
  if (status != nullptr) v.status = WireStatusFromJson(*status);
  return v;
}

Json ToJson(const SearchRequest& v) {
  Json json = Json::Object();
  json.Set("session_id", Json::Str(v.session_id));
  json.Set("query", Json::Str(v.query));
  json.Set("k", Json::Uint(v.k));
  json.Set("deadline_ms", Json::Uint(v.deadline_ms));
  // Only serialized when set, so untraced requests keep their pre-tracing
  // canonical bytes (same below for responses' "trace" subtree).
  if (v.trace) json.Set("trace", Json::Bool(true));
  return json;
}

SearchRequest SearchRequestFromJson(const Json& json) {
  SearchRequest v;
  v.session_id = StringField(json, "session_id");
  v.query = StringField(json, "query");
  v.k = UintField(json, "k");
  v.deadline_ms = UintField(json, "deadline_ms");
  v.trace = BoolField(json, "trace");
  return v;
}

Json ToJson(const SearchResponseDto& v) {
  Json json = Json::Object();
  json.Set("status", ToJson(v.status));
  json.Set("topk", ListToJson(v.topk, [](const TupleDto& t) {
    return ToJson(t);
  }));
  json.Set("contexts", ListToJson(v.contexts, [](const ContextBucketDto& b) {
    return ToJson(b);
  }));
  json.Set("connections", ListToJson(v.connections, [](const ConnectionDto& c) {
    return ToJson(c);
  }));
  json.Set("stats", ToJson(v.stats));
  if (!v.trace.name.empty()) json.Set("trace", ToJson(v.trace));
  return json;
}

SearchResponseDto SearchResponseDtoFromJson(const Json& json) {
  SearchResponseDto v;
  const Json* status = json.Find("status");
  if (status != nullptr) v.status = WireStatusFromJson(*status);
  v.topk = ListFromJson<TupleDto>(json.Find("topk"), TupleDtoFromJson);
  v.contexts = ListFromJson<ContextBucketDto>(json.Find("contexts"),
                                              ContextBucketDtoFromJson);
  v.connections =
      ListFromJson<ConnectionDto>(json.Find("connections"), ConnectionDtoFromJson);
  const Json* stats = json.Find("stats");
  if (stats != nullptr) v.stats = StatsDtoFromJson(*stats);
  const Json* trace = json.Find("trace");
  if (trace != nullptr) v.trace = SpanNodeFromJson(*trace);
  return v;
}

Json ToJson(const RefineRequest& v) {
  Json json = Json::Object();
  json.Set("session_id", Json::Str(v.session_id));
  json.Set("chosen_paths",
           ListToJson(v.chosen_paths, [](const std::vector<std::string>& paths) {
             return StringsToJson(paths);
           }));
  json.Set("k", Json::Uint(v.k));
  json.Set("deadline_ms", Json::Uint(v.deadline_ms));
  if (v.trace) json.Set("trace", Json::Bool(true));
  return json;
}

RefineRequest RefineRequestFromJson(const Json& json) {
  RefineRequest v;
  v.session_id = StringField(json, "session_id");
  const Json* lists = json.Find("chosen_paths");
  if (lists != nullptr) {
    v.chosen_paths.reserve(lists->size());
    for (size_t i = 0; i < lists->size(); ++i) {
      v.chosen_paths.push_back(StringsFromJson(&lists->at(i)));
    }
  }
  v.k = UintField(json, "k");
  v.deadline_ms = UintField(json, "deadline_ms");
  v.trace = BoolField(json, "trace");
  return v;
}

Json ToJson(const CompleteRequest& v) {
  Json json = Json::Object();
  json.Set("session_id", Json::Str(v.session_id));
  json.Set("term_paths", StringsToJson(v.term_paths));
  Json connections = Json::Array();
  for (uint64_t index : v.connections) connections.Append(Json::Uint(index));
  json.Set("connections", std::move(connections));
  json.Set("deadline_ms", Json::Uint(v.deadline_ms));
  if (v.trace) json.Set("trace", Json::Bool(true));
  return json;
}

CompleteRequest CompleteRequestFromJson(const Json& json) {
  CompleteRequest v;
  v.session_id = StringField(json, "session_id");
  v.term_paths = StringsFromJson(json.Find("term_paths"));
  const Json* connections = json.Find("connections");
  if (connections != nullptr) {
    v.connections.reserve(connections->size());
    for (size_t i = 0; i < connections->size(); ++i) {
      v.connections.push_back(connections->at(i).AsUint());
    }
  }
  v.deadline_ms = UintField(json, "deadline_ms");
  v.trace = BoolField(json, "trace");
  return v;
}

Json ToJson(const CompleteResponseDto& v) {
  Json json = Json::Object();
  json.Set("status", ToJson(v.status));
  json.Set("tuples", ListToJson(v.tuples, [](const std::vector<NodeRefDto>& row) {
    return ListToJson(row, [](const NodeRefDto& n) { return ToJson(n); });
  }));
  json.Set("twig_count", Json::Uint(v.twig_count));
  json.Set("cross_twig_joins", Json::Uint(v.cross_twig_joins));
  json.Set("stats", ToJson(v.stats));
  if (!v.trace.name.empty()) json.Set("trace", ToJson(v.trace));
  return json;
}

CompleteResponseDto CompleteResponseDtoFromJson(const Json& json) {
  CompleteResponseDto v;
  const Json* status = json.Find("status");
  if (status != nullptr) v.status = WireStatusFromJson(*status);
  const Json* tuples = json.Find("tuples");
  if (tuples != nullptr) {
    v.tuples.reserve(tuples->size());
    for (size_t i = 0; i < tuples->size(); ++i) {
      v.tuples.push_back(
          ListFromJson<NodeRefDto>(&tuples->at(i), NodeRefDtoFromJson));
    }
  }
  v.twig_count = UintField(json, "twig_count");
  v.cross_twig_joins = UintField(json, "cross_twig_joins");
  const Json* stats = json.Find("stats");
  if (stats != nullptr) v.stats = StatsDtoFromJson(*stats);
  const Json* trace = json.Find("trace");
  if (trace != nullptr) v.trace = SpanNodeFromJson(*trace);
  return v;
}

Json ToJson(const CubeRequest& v) {
  Json json = Json::Object();
  json.Set("session_id", Json::Str(v.session_id));
  json.Set("add_facts", StringsToJson(v.add_facts));
  json.Set("remove_facts", StringsToJson(v.remove_facts));
  json.Set("add_dimensions", StringsToJson(v.add_dimensions));
  json.Set("remove_dimensions", StringsToJson(v.remove_dimensions));
  json.Set("merge_fact_tables", Json::Bool(v.merge_fact_tables));
  json.Set("group_dims", StringsToJson(v.group_dims));
  json.Set("agg_fn", Json::Str(v.agg_fn));
  json.Set("measure", Json::Str(v.measure));
  json.Set("deadline_ms", Json::Uint(v.deadline_ms));
  if (v.trace) json.Set("trace", Json::Bool(true));
  return json;
}

CubeRequest CubeRequestFromJson(const Json& json) {
  CubeRequest v;
  v.session_id = StringField(json, "session_id");
  v.add_facts = StringsFromJson(json.Find("add_facts"));
  v.remove_facts = StringsFromJson(json.Find("remove_facts"));
  v.add_dimensions = StringsFromJson(json.Find("add_dimensions"));
  v.remove_dimensions = StringsFromJson(json.Find("remove_dimensions"));
  v.merge_fact_tables = BoolField(json, "merge_fact_tables", true);
  v.group_dims = StringsFromJson(json.Find("group_dims"));
  v.agg_fn = StringField(json, "agg_fn");
  if (v.agg_fn.empty()) v.agg_fn = "sum";
  v.measure = StringField(json, "measure");
  v.deadline_ms = UintField(json, "deadline_ms");
  v.trace = BoolField(json, "trace");
  return v;
}

Json ToJson(const TableDto& v) {
  Json json = Json::Object();
  json.Set("name", Json::Str(v.name));
  json.Set("columns", StringsToJson(v.columns));
  Json keys = Json::Array();
  for (uint64_t k : v.key_columns) keys.Append(Json::Uint(k));
  json.Set("key_columns", std::move(keys));
  json.Set("rows", ListToJson(v.rows, [](const std::vector<std::string>& row) {
    return StringsToJson(row);
  }));
  return json;
}

TableDto TableDtoFromJson(const Json& json) {
  TableDto v;
  v.name = StringField(json, "name");
  v.columns = StringsFromJson(json.Find("columns"));
  const Json* keys = json.Find("key_columns");
  if (keys != nullptr) {
    v.key_columns.reserve(keys->size());
    for (size_t i = 0; i < keys->size(); ++i) {
      v.key_columns.push_back(keys->at(i).AsUint());
    }
  }
  const Json* rows = json.Find("rows");
  if (rows != nullptr) {
    v.rows.reserve(rows->size());
    for (size_t i = 0; i < rows->size(); ++i) {
      v.rows.push_back(StringsFromJson(&rows->at(i)));
    }
  }
  return v;
}

Json ToJson(const CellDto& v) {
  Json json = Json::Object();
  json.Set("group", StringsToJson(v.group));
  json.Set("value", Json::Double(v.value));
  json.Set("count", Json::Uint(v.count));
  return json;
}

CellDto CellDtoFromJson(const Json& json) {
  CellDto v;
  v.group = StringsFromJson(json.Find("group"));
  // A null value is an encoded NaN (JSON has no NaN literal); an absent
  // field keeps the struct default.
  const Json* value = json.Find("value");
  if (value != nullptr) {
    v.value = value->is_null() ? std::nan("") : value->AsDouble();
  }
  v.count = UintField(json, "count");
  return v;
}

Json ToJson(const CubeResponseDto& v) {
  Json json = Json::Object();
  json.Set("status", ToJson(v.status));
  json.Set("fact_tables", ListToJson(v.fact_tables, [](const TableDto& t) {
    return ToJson(t);
  }));
  json.Set("dimension_tables",
           ListToJson(v.dimension_tables, [](const TableDto& t) {
             return ToJson(t);
           }));
  json.Set("warnings", StringsToJson(v.warnings));
  json.Set("cells", ListToJson(v.cells, [](const CellDto& c) {
    return ToJson(c);
  }));
  json.Set("cell_total", Json::Double(v.cell_total));
  json.Set("stats", ToJson(v.stats));
  if (!v.trace.name.empty()) json.Set("trace", ToJson(v.trace));
  return json;
}

CubeResponseDto CubeResponseDtoFromJson(const Json& json) {
  CubeResponseDto v;
  const Json* status = json.Find("status");
  if (status != nullptr) v.status = WireStatusFromJson(*status);
  v.fact_tables = ListFromJson<TableDto>(json.Find("fact_tables"), TableDtoFromJson);
  v.dimension_tables =
      ListFromJson<TableDto>(json.Find("dimension_tables"), TableDtoFromJson);
  v.warnings = StringsFromJson(json.Find("warnings"));
  v.cells = ListFromJson<CellDto>(json.Find("cells"), CellDtoFromJson);
  // Like CellDto::value, a null cell_total is an encoded NaN; mapping it to
  // 0 would both corrupt the value and break encode/decode byte stability.
  // An absent field keeps the struct default (0).
  const Json* total = json.Find("cell_total");
  if (total != nullptr) {
    v.cell_total = total->is_null() ? std::nan("") : total->AsDouble();
  }
  const Json* stats = json.Find("stats");
  if (stats != nullptr) v.stats = StatsDtoFromJson(*stats);
  const Json* trace = json.Find("trace");
  if (trace != nullptr) v.trace = SpanNodeFromJson(*trace);
  return v;
}

Json ToJson(const MethodStatsDto& v) {
  Json json = Json::Object();
  json.Set("method", Json::Str(v.method));
  json.Set("count", Json::Uint(v.count));
  json.Set("errors", Json::Uint(v.errors));
  json.Set("deadline_exceeded", Json::Uint(v.deadline_exceeded));
  json.Set("total_ms", Json::Double(v.total_ms));
  json.Set("latency_buckets", ListToJson(v.latency_buckets, [](uint64_t n) {
    return Json::Uint(n);
  }));
  return json;
}

MethodStatsDto MethodStatsDtoFromJson(const Json& json) {
  MethodStatsDto v;
  v.method = StringField(json, "method");
  v.count = UintField(json, "count");
  v.errors = UintField(json, "errors");
  v.deadline_exceeded = UintField(json, "deadline_exceeded");
  v.total_ms = DoubleField(json, "total_ms");
  v.latency_buckets = ListFromJson<uint64_t>(
      json.Find("latency_buckets"), [](const Json& n) { return n.AsUint(); });
  return v;
}

Json ToJson(const StatzRequest&) { return Json::Object(); }

StatzRequest StatzRequestFromJson(const Json&) { return StatzRequest{}; }

Json ToJson(const StatzResponse& v) {
  Json json = Json::Object();
  json.Set("status", ToJson(v.status));
  json.Set("epoch", Json::Uint(v.epoch));
  json.Set("sessions", Json::Uint(v.sessions));
  json.Set("sessions_created", Json::Uint(v.sessions_created));
  json.Set("sessions_evicted", Json::Uint(v.sessions_evicted));
  json.Set("uptime_ms", Json::Double(v.uptime_ms));
  json.Set("bucket_bounds_ms", ListToJson(v.bucket_bounds_ms, [](double b) {
    return Json::Double(b);
  }));
  json.Set("methods", ListToJson(v.methods, [](const MethodStatsDto& m) {
    return ToJson(m);
  }));
  json.Set("cumulative", ToJson(v.cumulative));
  // Transport counters keep the source's pair order (an object would merge
  // duplicate names silently and lose it).
  Json transport = Json::Array();
  for (const auto& [name, value] : v.transport) {
    Json counter = Json::Object();
    counter.Set("name", Json::Str(name));
    counter.Set("value", Json::Uint(value));
    transport.Append(std::move(counter));
  }
  json.Set("transport", std::move(transport));
  return json;
}

StatzResponse StatzResponseFromJson(const Json& json) {
  StatzResponse v;
  const Json* status = json.Find("status");
  if (status != nullptr) v.status = WireStatusFromJson(*status);
  v.epoch = UintField(json, "epoch");
  v.sessions = UintField(json, "sessions");
  v.sessions_created = UintField(json, "sessions_created");
  v.sessions_evicted = UintField(json, "sessions_evicted");
  v.uptime_ms = DoubleField(json, "uptime_ms");
  v.bucket_bounds_ms = ListFromJson<double>(
      json.Find("bucket_bounds_ms"), [](const Json& b) { return b.AsDouble(); });
  v.methods = ListFromJson<MethodStatsDto>(json.Find("methods"),
                                           MethodStatsDtoFromJson);
  const Json* transport = json.Find("transport");
  if (transport != nullptr) {
    v.transport.reserve(transport->size());
    for (size_t i = 0; i < transport->size(); ++i) {
      const Json& counter = transport->at(i);
      v.transport.emplace_back(StringField(counter, "name"),
                               UintField(counter, "value"));
    }
  }
  const Json* cumulative = json.Find("cumulative");
  if (cumulative != nullptr) v.cumulative = StatsDtoFromJson(*cumulative);
  return v;
}

Json ToJson(const obs::SpanNode& v) {
  Json json = Json::Object();
  json.Set("name", Json::Str(v.name));
  json.Set("start_us", Json::Uint(v.start_us));
  json.Set("elapsed_us", Json::Uint(v.elapsed_us));
  if (v.unix_ms != 0) json.Set("unix_ms", Json::Uint(v.unix_ms));
  if (!v.counters.empty()) {
    // An array of name/value objects, not an object: keeps insertion order
    // explicit and survives hypothetical duplicate counter names.
    Json counters = Json::Array();
    for (const auto& [name, value] : v.counters) {
      Json counter = Json::Object();
      counter.Set("name", Json::Str(name));
      counter.Set("value", Json::Uint(value));
      counters.Append(std::move(counter));
    }
    json.Set("counters", std::move(counters));
  }
  if (!v.children.empty()) {
    json.Set("children", ListToJson(v.children, [](const obs::SpanNode& child) {
      return ToJson(child);
    }));
  }
  return json;
}

obs::SpanNode SpanNodeFromJson(const Json& json) {
  obs::SpanNode v;
  v.name = StringField(json, "name");
  v.start_us = UintField(json, "start_us");
  v.elapsed_us = UintField(json, "elapsed_us");
  v.unix_ms = UintField(json, "unix_ms");
  const Json* counters = json.Find("counters");
  if (counters != nullptr) {
    v.counters.reserve(counters->size());
    for (size_t i = 0; i < counters->size(); ++i) {
      const Json& counter = counters->at(i);
      v.counters.emplace_back(StringField(counter, "name"),
                              UintField(counter, "value"));
    }
  }
  v.children = ListFromJson<obs::SpanNode>(json.Find("children"),
                                           SpanNodeFromJson);
  return v;
}

Json ToJson(const obs::SlowLogEntry& v) {
  Json json = Json::Object();
  json.Set("seq", Json::Uint(v.seq));
  json.Set("unix_ms", Json::Uint(v.unix_ms));
  json.Set("method", Json::Str(v.method));
  json.Set("session_id", Json::Str(v.session_id));
  json.Set("detail", Json::Str(v.detail));
  json.Set("elapsed_ms", Json::Double(v.elapsed_ms));
  json.Set("threshold_ms", Json::Uint(v.threshold_ms));
  json.Set("status_code", Json::Str(v.status_code));
  json.Set("deadline_exceeded", Json::Bool(v.deadline_exceeded));
  json.Set("sampled", Json::Bool(v.sampled));
  if (!v.trace.name.empty()) json.Set("trace", ToJson(v.trace));
  return json;
}

obs::SlowLogEntry SlowLogEntryFromJson(const Json& json) {
  obs::SlowLogEntry v;
  v.seq = UintField(json, "seq");
  v.unix_ms = UintField(json, "unix_ms");
  v.method = StringField(json, "method");
  v.session_id = StringField(json, "session_id");
  v.detail = StringField(json, "detail");
  v.elapsed_ms = DoubleField(json, "elapsed_ms");
  v.threshold_ms = UintField(json, "threshold_ms");
  v.status_code = StringField(json, "status_code");
  v.deadline_exceeded = BoolField(json, "deadline_exceeded");
  v.sampled = BoolField(json, "sampled");
  const Json* trace = json.Find("trace");
  if (trace != nullptr) v.trace = SpanNodeFromJson(*trace);
  return v;
}

Json ToJson(const MetriczRequest&) { return Json::Object(); }

MetriczRequest MetriczRequestFromJson(const Json&) { return MetriczRequest{}; }

Json ToJson(const MetriczResponse& v) {
  Json json = Json::Object();
  json.Set("status", ToJson(v.status));
  json.Set("text", Json::Str(v.text));
  return json;
}

MetriczResponse MetriczResponseFromJson(const Json& json) {
  MetriczResponse v;
  const Json* status = json.Find("status");
  if (status != nullptr) v.status = WireStatusFromJson(*status);
  v.text = StringField(json, "text");
  return v;
}

Json ToJson(const SlowlogRequest& v) {
  Json json = Json::Object();
  json.Set("limit", Json::Uint(v.limit));
  return json;
}

SlowlogRequest SlowlogRequestFromJson(const Json& json) {
  SlowlogRequest v;
  v.limit = UintField(json, "limit");
  return v;
}

Json ToJson(const SlowlogResponse& v) {
  Json json = Json::Object();
  json.Set("status", ToJson(v.status));
  json.Set("total_logged", Json::Uint(v.total_logged));
  json.Set("entries", ListToJson(v.entries, [](const obs::SlowLogEntry& e) {
    return ToJson(e);
  }));
  return json;
}

SlowlogResponse SlowlogResponseFromJson(const Json& json) {
  SlowlogResponse v;
  const Json* status = json.Find("status");
  if (status != nullptr) v.status = WireStatusFromJson(*status);
  v.total_logged = UintField(json, "total_logged");
  v.entries = ListFromJson<obs::SlowLogEntry>(json.Find("entries"),
                                              SlowLogEntryFromJson);
  return v;
}

// --- String-level wrappers ----------------------------------------------

#define SEDA_API_STRING_CODEC(Type)                                         \
  std::string Encode(const Type& v) { return ToJson(v).Write(); }           \
  Result<Type> Decode##Type(const std::string& json) {                      \
    return DecodeObject<Type>(json, #Type, [](const Json& parsed) {         \
      return Type##FromJson(parsed);                                        \
    });                                                                     \
  }

SEDA_API_STRING_CODEC(WireStatus)
SEDA_API_STRING_CODEC(StatsDto)
SEDA_API_STRING_CODEC(NodeRefDto)
SEDA_API_STRING_CODEC(TupleDto)
SEDA_API_STRING_CODEC(ContextEntryDto)
SEDA_API_STRING_CODEC(ContextBucketDto)
SEDA_API_STRING_CODEC(ConnectionStepDto)
SEDA_API_STRING_CODEC(ConnectionDto)
SEDA_API_STRING_CODEC(CreateSessionRequest)
SEDA_API_STRING_CODEC(CreateSessionResponse)
SEDA_API_STRING_CODEC(CloseSessionRequest)
SEDA_API_STRING_CODEC(CloseSessionResponse)
SEDA_API_STRING_CODEC(SearchRequest)
SEDA_API_STRING_CODEC(SearchResponseDto)
SEDA_API_STRING_CODEC(RefineRequest)
SEDA_API_STRING_CODEC(CompleteRequest)
SEDA_API_STRING_CODEC(CompleteResponseDto)
SEDA_API_STRING_CODEC(CubeRequest)
SEDA_API_STRING_CODEC(TableDto)
SEDA_API_STRING_CODEC(CellDto)
SEDA_API_STRING_CODEC(CubeResponseDto)
SEDA_API_STRING_CODEC(MethodStatsDto)
SEDA_API_STRING_CODEC(StatzRequest)
SEDA_API_STRING_CODEC(StatzResponse)
SEDA_API_STRING_CODEC(MetriczRequest)
SEDA_API_STRING_CODEC(MetriczResponse)
SEDA_API_STRING_CODEC(SlowlogRequest)
SEDA_API_STRING_CODEC(SlowlogResponse)

#undef SEDA_API_STRING_CODEC

}  // namespace seda::api
