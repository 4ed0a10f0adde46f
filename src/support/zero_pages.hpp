// Fixed-size array on fresh anonymous pages. Every byte reads as zero and
// the kernel backs a page only when it is first written, so a large,
// sparsely used table (the CPU's per-flash-word decode cache, the tier's
// block map) costs what its touched pages cost. mmap rather than calloc:
// glibc's dynamic mmap threshold serves a freed multi-megabyte block from
// the heap on the next calloc, which then memsets all of it. Being its own
// mapping, the array also goes back to the system when its owner dies;
// that is why the program flash, which is filled in full, lives here too.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mavr::support {

template <typename T>
class ZeroPages {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "zero pages hold plain values only");

 public:
  ZeroPages() = default;
  explicit ZeroPages(std::size_t n) : size_(n) {
    if (n == 0) return;
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }
  ZeroPages(ZeroPages&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  ZeroPages& operator=(ZeroPages&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~ZeroPages() {
    if (data_ != nullptr) ::munmap(data_, size_ * sizeof(T));
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace mavr::support
