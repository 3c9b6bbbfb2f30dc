#include "alloc_counter.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

/// Every block carries its requested size in a header this wide, so the
/// unsized deletes can subtract it from the live total. The width keeps
/// the returned pointer at malloc's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* allocate(std::size_t n) noexcept {
  auto* base = static_cast<unsigned char*>(std::malloc(kHeader + n));
  if (base == nullptr) return nullptr;
  *reinterpret_cast<std::size_t*>(base) = n;
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  const std::uint64_t live =
      g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return base + kHeader;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  auto* base = static_cast<unsigned char*>(p) - kHeader;
  g_live.fetch_sub(*reinterpret_cast<std::size_t*>(base),
                   std::memory_order_relaxed);
  std::free(base);
}
}  // namespace

std::uint64_t eas::testing::allocations() {
  return g_news.load(std::memory_order_relaxed);
}

std::uint64_t eas::testing::allocated_bytes() {
  return g_bytes.load(std::memory_order_relaxed);
}

std::uint64_t eas::testing::live_bytes() {
  return g_live.load(std::memory_order_relaxed);
}

std::uint64_t eas::testing::peak_live_bytes() {
  return g_peak.load(std::memory_order_relaxed);
}

void eas::testing::reset_peak_live_bytes() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

// GCC's inliner pairs the shim's pass-through free() against allocations it
// attributes to a non-malloc operator new and warns; the pairing is exact by
// construction (every new here funnels through malloc).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (void* p = allocate(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms must funnel through the same allocator, or a
// stable_sort temporary buffer (allocated nothrow) reaches the shim's
// delete from a foreign allocator — ASan flags the mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
