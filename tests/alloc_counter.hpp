// Allocation counting for the zero-allocation and memory-bound tests.
//
// A test binary that links alloc_counter.cpp has every replaceable global
// allocation function (scalar and array, throwing and nothrow) replaced by
// a counting malloc pass-through; the matching deletes free through the
// same shim, which subtracts the block's size from the live total. Only
// the binaries that pin an allocation-free promise link it, so the rest of
// the suite keeps the standard allocator.
#pragma once

#include <cstdint>

namespace eas::testing {

/// Calls to any operator new since the program started.
std::uint64_t allocations();

/// Bytes requested from any operator new since the program started (the
/// cumulative total, not the live footprint: frees are not subtracted).
std::uint64_t allocated_bytes();

/// Bytes requested from operator new and not yet deleted.
std::uint64_t live_bytes();

/// The high-water mark of live_bytes() since the last reset_peak_live_bytes()
/// (or program start).
std::uint64_t peak_live_bytes();

/// Restarts the high-water mark at the current live_bytes().
void reset_peak_live_bytes();

/// Allocations observed while running `body`.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = allocations();
  body();
  return allocations() - before;
}

/// Bytes requested while running `body`.
template <typename Body>
std::uint64_t bytes_during(Body&& body) {
  const std::uint64_t before = allocated_bytes();
  body();
  return allocated_bytes() - before;
}

}  // namespace eas::testing
