// seda_audit: opens a persisted snapshot image, loads the epoch from it and
// runs the full cross-layer invariant audit (src/audit/) plus the
// image-agreement checks. Prints one line per violation.
//
//   seda_audit <image-file>
//
// Exit codes: 0 = audit clean, 1 = violations found, 2 = image unreadable.

#include <cstdio>
#include <string>

#include "core/snapshot.h"
#include "persist/reader.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <image-file>\n", argv[0]);
    return 2;
  }
  const std::string path = argv[1];

  auto image = seda::persist::MappedImage::Open(path);
  if (!image.ok()) {
    std::fprintf(stderr, "seda_audit: %s\n", image.status().ToString().c_str());
    return 2;
  }

  auto snapshot = seda::core::Snapshot::Load(*image);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "seda_audit: %s\n",
                 snapshot.status().ToString().c_str());
    return 2;
  }

  seda::audit::AuditReport report = (*snapshot)->Audit(**image);
  std::fprintf(stdout, "%s: epoch %llu, %zu documents\n%s", path.c_str(),
               static_cast<unsigned long long>((*snapshot)->epoch()),
               (*snapshot)->store().DocumentCount(),
               report.ToString().c_str());
  return report.ok() ? 0 : 1;
}
