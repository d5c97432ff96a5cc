// The bounded free list behind waveform and decay-column storage.

#include "si/sample_pool.hpp"

#include <gtest/gtest.h>

#include <new>
#include <thread>
#include <vector>

#include "si/bus.hpp"
#include "si/waveform.hpp"

namespace jsi::si {
namespace {

constexpr std::size_t kBuffer = 2048 * sizeof(double);  // one 16 KiB waveform

TEST(SamplePool, InstallsOnItsThreadAndNests) {
  EXPECT_EQ(SamplePool::current(), nullptr);
  {
    SamplePool outer;
    EXPECT_EQ(SamplePool::current(), &outer);
    {
      SamplePool inner;
      EXPECT_EQ(SamplePool::current(), &inner);
      std::thread([] { EXPECT_EQ(SamplePool::current(), nullptr); }).join();
    }
    EXPECT_EQ(SamplePool::current(), &outer);
  }
  EXPECT_EQ(SamplePool::current(), nullptr);
}

TEST(SamplePool, ServesOnlyExactSizes) {
  SamplePool pool;
  void* p = ::operator new(kBuffer);
  ASSERT_TRUE(pool.give(p, kBuffer));
  EXPECT_EQ(pool.take(kBuffer / 2), nullptr);
  EXPECT_EQ(pool.take(kBuffer), p);
  EXPECT_EQ(pool.take(kBuffer), nullptr);
  EXPECT_EQ(pool.reused(), 1u);
  ::operator delete(p);
}

TEST(SamplePool, NeverPassesItsBounds) {
  SamplePool pool;
  std::vector<void*> refused;
  for (std::size_t i = 0; i < 2 * SamplePool::kMaxBytes / kBuffer; ++i) {
    void* p = ::operator new(kBuffer);
    if (!pool.give(p, kBuffer)) refused.push_back(p);
    EXPECT_LE(pool.held_bytes(), SamplePool::kMaxBytes);
  }
  EXPECT_EQ(pool.held_bytes(), SamplePool::kMaxBytes);
  EXPECT_EQ(pool.peak_bytes(), SamplePool::kMaxBytes);
  EXPECT_EQ(refused.size(), SamplePool::kMaxBytes / kBuffer);
  for (void* p : refused) ::operator delete(p);

  SamplePool small;
  for (std::size_t i = 0; i <= SamplePool::kMaxBuffers; ++i) {
    void* p = ::operator new(64);
    if (!small.give(p, 64)) ::operator delete(p);
  }
  EXPECT_EQ(small.held_buffers(), SamplePool::kMaxBuffers);
}

TEST(SamplePool, FreesWhatItHoldsOnDestruction) {
  const std::size_t before = SamplePool::held_by_all_pools();
  {
    SamplePool pool;
    { Waveform w(2048, sim::kPs, 1.0); }
    EXPECT_EQ(pool.held_buffers(), 1u);
    EXPECT_EQ(SamplePool::held_by_all_pools(), before + kBuffer);
  }
  EXPECT_EQ(SamplePool::held_by_all_pools(), before);
}

TEST(SamplePool, ABusRendersIntoTheBuffersOfTheBusBeforeIt) {
  SamplePool pool;
  BusParams p;
  std::size_t first_buffers = 0;
  {
    CoupledBus bus(p);
    bus.warm_ma_pairs();
    first_buffers = bus.cache_entries() + bus.decay_columns().size();
  }
  EXPECT_EQ(pool.held_buffers(), first_buffers);
  p.r_driver *= 1.05;  // a new die: new time constants, no shared recipe
  CoupledBus next(p);
  next.warm_ma_pairs();
  const std::size_t next_buffers =
      next.cache_entries() + next.decay_columns().size();
  EXPECT_EQ(pool.reused(), std::min(first_buffers, next_buffers));
  // Reused storage holds exactly what a fresh render does.
  const CoupledBus fresh = [&] {
    CoupledBus b(p);
    return b;
  }();
  const auto vp_prev = util::BitVec::from_string("00000000");
  const auto vp_next = util::BitVec::from_string("01011010");
  const std::vector<Waveform> a = next.transition(vp_prev, vp_next);
  const std::vector<Waveform> b = fresh.transition(vp_prev, vp_next);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    for (std::size_t s = 0; s < a[w].samples(); ++s) {
      ASSERT_EQ(a[w][s], b[w][s]) << "wire " << w << " sample " << s;
    }
  }
}

}  // namespace
}  // namespace jsi::si
