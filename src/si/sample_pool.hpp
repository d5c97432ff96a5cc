#ifndef JSI_SI_SAMPLE_POOL_HPP
#define JSI_SI_SAMPLE_POOL_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace jsi::si {

/// A bounded free list of sample buffers, installed on the thread that
/// constructs it until it is destroyed. While a pool is installed, the
/// sample storage of every `Waveform` and every kept `DecayColumns`
/// column (see SampleBuffer) is served from the pool when it holds a
/// buffer of the requested size, and a freed buffer goes back into the
/// pool unless that would pass kMaxBytes or kMaxBuffers. The destructor
/// frees what the pool holds and reinstalls the pool it replaced, if any.
///
/// A campaign worker installs one for the length of its run: each die's
/// bus frees its waveforms and decay columns when the unit ends, and the
/// next die takes the same buffers instead of asking the allocator, which
/// may have returned them to the kernel in between (DESIGN.md, obs
/// section, has the measurement). Buffers are plain ::operator new
/// memory, so one freed on a thread without a pool, or into another
/// thread's pool, is still freed correctly.
class SamplePool {
 public:
  /// The most bytes one pool holds: over three times the buffers of the
  /// widest shipped die (a `random_defects` die keeps 54 waveforms and 16
  /// decay columns of 16 KiB, 1.1 MiB), so a die's buffers all fit.
  static constexpr std::size_t kMaxBytes = std::size_t{4} << 20;
  /// The most buffers one pool holds. The list is reserved up front, so
  /// giving a buffer back never allocates.
  static constexpr std::size_t kMaxBuffers = 1024;

  SamplePool();
  ~SamplePool();
  SamplePool(const SamplePool&) = delete;
  SamplePool& operator=(const SamplePool&) = delete;

  /// The pool installed on the calling thread, or nullptr.
  static SamplePool* current();

  /// A held buffer of exactly `bytes`, removed from the list; nullptr
  /// when the pool holds none.
  void* take(std::size_t bytes);

  /// Keep `p` (a buffer of `bytes` from ::operator new) unless that
  /// would pass a bound; false when the caller must free it.
  bool give(void* p, std::size_t bytes);

  std::size_t held_buffers() const { return free_.size(); }
  std::size_t held_bytes() const { return held_bytes_; }
  /// The most bytes the pool has held at once.
  std::size_t peak_bytes() const { return peak_bytes_; }
  /// Requests take() served from the list.
  std::uint64_t reused() const { return reused_; }

  /// Bytes held by every live pool of the process together.
  static std::size_t held_by_all_pools();

 private:
  struct Buffer {
    void* p;
    std::size_t bytes;
  };
  std::vector<Buffer> free_;
  std::size_t held_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  std::uint64_t reused_ = 0;
  SamplePool* outer_;
};

/// Owning storage of n doubles: one waveform's or decay column's samples.
/// Its buffer comes from the calling thread's SamplePool when the pool
/// holds one of that size, and goes back to the pool of the thread that
/// frees it; without a pool, ::operator new and ::operator delete. A copy
/// is one memcpy into a buffer of its own.
class SampleBuffer {
 public:
  SampleBuffer() = default;
  /// `n` samples, left uninitialized for the caller to fill.
  explicit SampleBuffer(std::size_t n) : p_(acquire(n)), n_(n) {}
  SampleBuffer(std::size_t n, double init) : SampleBuffer(n) {
    std::fill_n(p_, n, init);
  }
  /// A copy of the `n` samples at `first`.
  SampleBuffer(const double* first, std::size_t n);
  SampleBuffer(const SampleBuffer& o) : SampleBuffer(o.p_, o.n_) {}
  SampleBuffer(SampleBuffer&& o) noexcept : p_(o.p_), n_(o.n_) {
    o.p_ = nullptr;
    o.n_ = 0;
  }
  SampleBuffer& operator=(SampleBuffer o) noexcept {
    std::swap(p_, o.p_);
    std::swap(n_, o.n_);
    return *this;
  }
  ~SampleBuffer() { release(p_, n_); }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  double* data() { return p_; }
  const double* data() const { return p_; }
  double& operator[](std::size_t i) { return p_[i]; }
  double operator[](std::size_t i) const { return p_[i]; }
  double* begin() { return p_; }
  double* end() { return p_ + n_; }

 private:
  static double* acquire(std::size_t n);
  static void release(double* p, std::size_t n) noexcept;

  double* p_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace jsi::si

#endif  // JSI_SI_SAMPLE_POOL_HPP
