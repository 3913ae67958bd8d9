// Allocation-counting hook for tests that bound heap traffic literally.
//
// Including this header replaces the binary's global operator new/delete, so
// include it from exactly one translation unit per test binary. While an
// AllocWindow is open, every operator new call is counted and its size
// summed.

#ifndef INS_TESTS_ALLOC_WINDOW_H_
#define INS_TESTS_ALLOC_WINDOW_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

struct AllocWindow {
  AllocWindow() {
    g_allocs.store(0);
    g_alloc_bytes.store(0);
    g_count_allocs.store(true);
  }
  ~AllocWindow() { g_count_allocs.store(false); }
  uint64_t count() const { return g_allocs.load(); }
  uint64_t bytes() const { return g_alloc_bytes.load(); }
};
}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

#endif  // INS_TESTS_ALLOC_WINDOW_H_
