#include "util/pages.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace eas::util {

void release_pages(void* data, std::size_t bytes) {
#if defined(__linux__)
  if (bytes < kReleaseMinBytes) return;
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t first = (begin + page - 1) & ~(page - 1);
  const std::uintptr_t last = (begin + bytes) & ~(page - 1);
  // Advice only: on failure the pages just stay resident.
  if (last > first) {
    (void)madvise(reinterpret_cast<void*>(first), last - first,
                  MADV_DONTNEED);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace eas::util
