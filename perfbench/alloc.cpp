// Replaces the global allocation functions of the benchmark binary (and
// only of it) to count the bytes each thread requests. Spans read the
// counter at their boundaries to attribute allocation to a layer.
//
// libstdc++'s array and nothrow forms forward to the functions replaced
// here.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "spans.hpp"

namespace {
thread_local std::uint64_t t_alloc_bytes = 0;

void* allocate(std::size_t size, std::size_t align) {
  t_alloc_bytes += size;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

std::uint64_t perfbench::thread_alloc_bytes() { return t_alloc_bytes; }

void* operator new(std::size_t size) {
  return allocate(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
