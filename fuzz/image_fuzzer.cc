// Fuzz target for the persisted-image surface: header/section-table
// validation (MappedImage), section decoding (SectionCursor via the
// per-layer Load hooks) and full snapshot reconstruction. A snapshot image
// can come from an untrusted filesystem, so a hostile byte stream must
// always surface as a Status — never UB, OOM or a crash.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/snapshot.h"
#include "persist/reader.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::vector<uint8_t> bytes(data, data + size);
  auto image = seda::persist::MappedImage::FromBuffer(std::move(bytes), "fuzz");
  if (!image.ok()) return 0;

  // Walk every declared section with a raw cursor (exercises the sticky
  // bounds checks even for sections Load() would skip).
  for (const seda::persist::SectionEntry& entry : image.value()->sections()) {
    auto cursor = seda::persist::OpenSection(
        *image.value(), static_cast<seda::persist::SectionId>(entry.id));
    if (!cursor.ok()) continue;
    while (cursor.value().remaining() > 0 && !cursor.value().failed()) {
      (void)cursor.value().GetString();
      (void)cursor.value().GetU32Array();
    }
  }

  // Full reconstruction: store, graph, index and dataguide decode hooks.
  (void)seda::core::Snapshot::Load(image.value());
  return 0;
}
