// Unit tests for Hamming utilities and the Activity instrumentation class.

#include "power/activity.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>

namespace ahbp::power {
namespace {

TEST(Hamming, BasicProperties) {
  EXPECT_EQ(hamming(0, 0), 0u);
  EXPECT_EQ(hamming(0b1010, 0b1010), 0u);
  EXPECT_EQ(hamming(0b1010, 0b0101), 4u);
  EXPECT_EQ(hamming(0, ~0ull), 64u);
  EXPECT_EQ(hamming(0xFF, 0x00), 8u);
  EXPECT_EQ(hamming(1, 2), 2u);
}

TEST(Hamming, Symmetric) {
  EXPECT_EQ(hamming(0xCAFE, 0xBEEF), hamming(0xBEEF, 0xCAFE));
}

TEST(Hamming, ConstexprUsable) {
  static_assert(hamming(0b111, 0b000) == 3);
  SUCCEED();
}

TEST(Hamming, SwarMatchesPopcount) {
  const auto popcount_xor = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<unsigned>(std::popcount(a ^ b));
  };
  EXPECT_EQ(hamming(0, 0), popcount_xor(0, 0));
  EXPECT_EQ(hamming(~0ull, 0), popcount_xor(~0ull, 0));
  EXPECT_EQ(hamming(~0ull, ~0ull), popcount_xor(~0ull, ~0ull));
  for (unsigned i = 0; i < 64; ++i) {
    const std::uint64_t bit = 1ull << i;
    EXPECT_EQ(hamming(bit, 0), popcount_xor(bit, 0)) << i;
    EXPECT_EQ(hamming(0, bit), 1u) << i;
    EXPECT_EQ(hamming(~0ull, bit), 63u) << i;
    EXPECT_EQ(hamming(~bit, 0), 63u) << i;
  }
  // Uniform words toggle ~32 bits; AND-ing draws thins the XOR so the
  // sparse and dense ends of the range are covered too.
  std::mt19937_64 rng(0x5eed);
  std::uint64_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t a = rng();
    std::uint64_t b = rng();
    if (i % 4 == 1) b = a ^ (rng() & rng() & rng());
    if (i % 4 == 2) b = ~a ^ (rng() & rng() & rng());
    if (hamming(a, b) != popcount_xor(a, b)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ActivityChannel, FirstObservationCountsNothing) {
  ActivityChannel ch;
  EXPECT_EQ(ch.store_activity(0xFFFF), 0u);
  EXPECT_EQ(ch.bit_change_count(), 0u);
  EXPECT_EQ(ch.sample_count(), 1u);
}

TEST(ActivityChannel, AccumulatesHammingDistances) {
  ActivityChannel ch;
  ch.store_activity(0b0000);
  EXPECT_EQ(ch.store_activity(0b0011), 2u);
  EXPECT_EQ(ch.store_activity(0b0111), 1u);
  EXPECT_EQ(ch.bit_change_count(), 3u);
  EXPECT_EQ(ch.last_hd(), 1u);
  EXPECT_EQ(ch.last_value(), 0b0111u);
  EXPECT_EQ(ch.sample_count(), 3u);
}

TEST(ActivityChannel, MeanHd) {
  ActivityChannel ch;
  EXPECT_DOUBLE_EQ(ch.mean_hd(), 0.0);
  ch.store_activity(0);
  EXPECT_DOUBLE_EQ(ch.mean_hd(), 0.0);  // one sample: no transitions yet
  ch.store_activity(0b1111);  // HD 4
  ch.store_activity(0b1110);  // HD 1
  EXPECT_DOUBLE_EQ(ch.mean_hd(), 2.5);
}

TEST(ActivityChannel, ResetClearsEverything) {
  ActivityChannel ch;
  ch.store_activity(5);
  ch.store_activity(6);
  ch.reset();
  EXPECT_EQ(ch.bit_change_count(), 0u);
  EXPECT_EQ(ch.sample_count(), 0u);
  EXPECT_EQ(ch.store_activity(0xFF), 0u);  // first sample again
}

TEST(Activity, ChannelsAreCreatedOnDemand) {
  Activity a;
  EXPECT_EQ(a.find("haddr"), nullptr);
  a.channel("haddr").store_activity(1);
  EXPECT_NE(a.find("haddr"), nullptr);
  EXPECT_EQ(a.channels().size(), 1u);
}

TEST(Activity, BitChangeCountSumsChannels) {
  Activity a;
  a.channel("x").store_activity(0);
  a.channel("x").store_activity(0b11);  // 2
  a.channel("y").store_activity(0);
  a.channel("y").store_activity(0b111);  // 3
  EXPECT_EQ(a.bit_change_count(), 5u);
}

TEST(Activity, ResetClearsChannels) {
  Activity a;
  a.channel("x").store_activity(1);
  a.reset();
  EXPECT_TRUE(a.channels().empty());
}

}  // namespace
}  // namespace ahbp::power
