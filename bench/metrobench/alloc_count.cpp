#include "alloc_count.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t t_allocs = 0;

void* Grab(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* GrabAligned(std::size_t n, std::size_t align) {
  ++t_allocs;
  if (void* p = std::aligned_alloc(align, ((n + align - 1) / align) * align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

namespace metrobench {

std::uint64_t ThreadAllocs() { return t_allocs; }

}  // namespace metrobench

void* operator new(std::size_t n) { return Grab(n); }
void* operator new[](std::size_t n) { return Grab(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return GrabAligned(n, std::size_t(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return GrabAligned(n, std::size_t(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
