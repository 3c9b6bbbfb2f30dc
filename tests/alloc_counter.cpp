#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_bytes{0};

void count(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace

std::uint64_t eas::testing::allocations() {
  return g_news.load(std::memory_order_relaxed);
}

std::uint64_t eas::testing::allocated_bytes() {
  return g_bytes.load(std::memory_order_relaxed);
}

// GCC's inliner pairs the shim's pass-through free() against allocations it
// attributes to a non-malloc operator new and warns; the pairing is exact by
// construction (every new here funnels through malloc).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  count(n);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms must funnel through the same malloc, or a
// stable_sort temporary buffer (allocated nothrow) reaches the
// pass-through free() from a foreign allocator — ASan flags the mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count(n);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
