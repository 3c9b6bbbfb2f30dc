// Returning a freed buffer's memory to the operating system.
//
// glibc's malloc keeps the pages of a freed heap block resident, so a
// multi-megabyte buffer freed at the end of one run stays in the process's
// resident set. Whether the next run's buffer of the same size lands in that
// hole or in fresh pages then depends on every small allocation made in
// between, and the process's peak RSS with it. Releasing the block's pages
// before the free makes the resident set follow the live data instead.
#pragma once

#include <cstddef>

namespace eas::util {

/// Hands the whole pages inside [data, data + bytes) back to the OS, if the
/// span covers at least kReleaseMinBytes; their contents read as zero after.
/// Call it on memory the caller owns, just before freeing it. A no-op where
/// the platform has no such call.
void release_pages(void* data, std::size_t bytes);

/// Spans smaller than this are left to the allocator: its free lists reuse
/// them, and the call would cost more than the few pages it returns.
inline constexpr std::size_t kReleaseMinBytes = std::size_t{1} << 20;

}  // namespace eas::util
