// Fuzz target for the JSON wire layer (src/api/wire.*) — the service's
// untrusted network-input surface. Any input must come back as a clean
// Status; crashes, sanitizer reports and hangs are bugs. Every wire type's
// decoder runs on each input (requests are what Handle() feeds with
// attacker-controlled payloads; responses run on the client side of the
// wire, the same trust level), and every value that decodes must keep the
// wire contract Encode(Decode(Encode(x))) == Encode(x) — a break aborts.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "api/wire.h"

namespace {

template <typename T>
void CheckRoundTrip(const std::string& input,
                    seda::Result<T> (*decode)(const std::string&)) {
  auto decoded = decode(input);
  if (!decoded.ok()) return;
  const std::string first = seda::api::Encode(decoded.value());
  auto again = decode(first);
  if (!again.ok() || seda::api::Encode(again.value()) != first) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);

  (void)seda::api::Json::Parse(input);
#define SEDA_FUZZ_WIRE_TYPE(Type) \
  CheckRoundTrip<seda::api::Type>(input, seda::api::Decode##Type);
  SEDA_WIRE_TYPES(SEDA_FUZZ_WIRE_TYPE)
#undef SEDA_FUZZ_WIRE_TYPE
  return 0;
}
