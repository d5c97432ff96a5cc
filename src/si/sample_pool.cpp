#include "si/sample_pool.hpp"

#include <atomic>
#include <cstring>
#include <new>

#include <sanitizer/asan_interface.h>

namespace jsi::si {

namespace {

thread_local SamplePool* t_current = nullptr;
std::atomic<std::size_t> g_held_bytes{0};

}  // namespace

SamplePool::SamplePool() : outer_(t_current) {
  free_.reserve(kMaxBuffers);
  t_current = this;
}

SamplePool::~SamplePool() {
  t_current = outer_;
  for (const Buffer& b : free_) {
    ASAN_UNPOISON_MEMORY_REGION(b.p, b.bytes);
    ::operator delete(b.p);
  }
  g_held_bytes.fetch_sub(held_bytes_, std::memory_order_relaxed);
}

SamplePool* SamplePool::current() { return t_current; }

void* SamplePool::take(std::size_t bytes) {
  // Newest first: a die's buffers all have one size, so the last one
  // given back matches.
  for (std::size_t i = free_.size(); i-- > 0;) {
    if (free_[i].bytes != bytes) continue;
    void* p = free_[i].p;
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
    free_[i] = free_.back();
    free_.pop_back();
    held_bytes_ -= bytes;
    g_held_bytes.fetch_sub(bytes, std::memory_order_relaxed);
    ++reused_;
    return p;
  }
  return nullptr;
}

bool SamplePool::give(void* p, std::size_t bytes) {
  if (free_.size() == kMaxBuffers || held_bytes_ + bytes > kMaxBytes) {
    return false;
  }
  // A held buffer is free memory: under AddressSanitizer a read through
  // a pointer into it reports as a use after free would.
  ASAN_POISON_MEMORY_REGION(p, bytes);
  free_.push_back({p, bytes});
  held_bytes_ += bytes;
  if (held_bytes_ > peak_bytes_) peak_bytes_ = held_bytes_;
  g_held_bytes.fetch_add(bytes, std::memory_order_relaxed);
  return true;
}

SampleBuffer::SampleBuffer(const double* first, std::size_t n)
    : SampleBuffer(n) {
  if (n != 0) std::memcpy(p_, first, n * sizeof(double));
}

double* SampleBuffer::acquire(std::size_t n) {
  if (n == 0) return nullptr;
  const std::size_t bytes = n * sizeof(double);
  if (SamplePool* pool = SamplePool::current()) {
    if (void* p = pool->take(bytes)) return static_cast<double*>(p);
  }
  return static_cast<double*>(::operator new(bytes));
}

void SampleBuffer::release(double* p, std::size_t n) noexcept {
  if (p == nullptr) return;
  SamplePool* pool = SamplePool::current();
  if (pool == nullptr || !pool->give(p, n * sizeof(double))) {
    ::operator delete(p);
  }
}

std::size_t SamplePool::held_by_all_pools() {
  return g_held_bytes.load(std::memory_order_relaxed);
}

}  // namespace jsi::si
