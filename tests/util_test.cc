// Unit tests: byte buffers, CRC-32, units.
#include <gtest/gtest.h>

#include <cstdint>

#include "util/buffer.h"
#include "util/crc32.h"
#include "util/recent_keys.h"
#include "util/units.h"

namespace hydra {
namespace {

TEST(BufferWriter, WritesLittleEndianPrimitives) {
  BufferWriter w;
  w.write_u8(0xab);
  w.write_u16(0x1234);
  w.write_u32(0xdeadbeef);
  w.write_u64(0x0102030405060708ull);
  const auto v = w.view();
  ASSERT_EQ(v.size(), 15u);
  EXPECT_EQ(v[0], 0xab);
  EXPECT_EQ(v[1], 0x34);  // u16 low byte first
  EXPECT_EQ(v[2], 0x12);
  EXPECT_EQ(v[3], 0xef);
  EXPECT_EQ(v[6], 0xde);
  EXPECT_EQ(v[7], 0x08);
  EXPECT_EQ(v[14], 0x01);
}

TEST(BufferWriter, ZerosAndBytes) {
  BufferWriter w;
  w.write_zeros(3);
  const Bytes payload = {1, 2, 3};
  w.write_bytes(payload);
  EXPECT_EQ(w.size(), 6u);
  EXPECT_EQ(w.view()[0], 0);
  EXPECT_EQ(w.view()[3], 1);
  EXPECT_EQ(w.view()[5], 3);
}

TEST(BufferRoundTrip, AllPrimitiveWidths) {
  BufferWriter w;
  w.write_u8(0x7f);
  w.write_u16(0xbeef);
  w.write_u32(0xcafebabe);
  w.write_u64(0xfeedfacedeadbeefull);
  const auto bytes = w.take();
  BufferReader r(bytes);
  EXPECT_EQ(r.read_u8(), 0x7f);
  EXPECT_EQ(r.read_u16(), 0xbeef);
  EXPECT_EQ(r.read_u32(), 0xcafebabeu);
  EXPECT_EQ(r.read_u64(), 0xfeedfacedeadbeefull);
  EXPECT_TRUE(r.exhausted());
}

TEST(BufferReader, TracksRemainingAndPosition) {
  const Bytes data = {1, 2, 3, 4, 5};
  BufferReader r(data);
  EXPECT_EQ(r.remaining(), 5u);
  EXPECT_TRUE(r.can_read(5));
  EXPECT_FALSE(r.can_read(6));
  r.skip(2);
  EXPECT_EQ(r.position(), 2u);
  EXPECT_EQ(r.remaining(), 3u);
  const auto rest = r.read_bytes(3);
  EXPECT_EQ(rest, (Bytes{3, 4, 5}));
  EXPECT_TRUE(r.exhausted());
}

TEST(BufferReader, SliceViewsArbitraryRegions) {
  const Bytes data = {10, 20, 30, 40};
  BufferReader r(data);
  r.skip(4);
  const auto s = r.slice(1, 2);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 20);
  EXPECT_EQ(s[1], 30);
}

TEST(Hex, FormatsBytes) {
  const Bytes data = {0x00, 0xff, 0x1a};
  EXPECT_EQ(to_hex(data), "00 ff 1a");
  EXPECT_EQ(to_hex({}), "");
}

TEST(Crc32, MatchesKnownVector) {
  // The canonical CRC-32 check value for "123456789".
  const Bytes data = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  auto state = kCrc32Init;
  state = crc32_update(state, std::span(data).subspan(0, 100));
  state = crc32_update(state, std::span(data).subspan(100, 150));
  state = crc32_update(state, std::span(data).subspan(250));
  EXPECT_EQ(crc32_finalize(state), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlips) {
  Bytes data = {'h', 'y', 'd', 'r', 'a'};
  const auto original = crc32(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crc32(data), original)
          << "undetected flip at byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1 << bit);
    }
  }
}

TEST(BitRate, ConstructionAndConversion) {
  EXPECT_EQ(BitRate::mbps_x100(65).bits_per_second(), 650'000u);
  EXPECT_EQ(BitRate::mbps_x100(130).bits_per_second(), 1'300'000u);
  EXPECT_DOUBLE_EQ(BitRate::mbps_x100(260).mbps(), 2.6);
  EXPECT_EQ(BitRate::kbps(5).bits_per_second(), 5'000u);
  EXPECT_TRUE(BitRate().is_zero());
  EXPECT_LT(BitRate::mbps_x100(65), BitRate::mbps_x100(130));
}

TEST(BitRate, ToString) {
  EXPECT_EQ(to_string(BitRate::mbps_x100(65)), "0.65 Mbps");
}

// The MAC's retransmission dedup window (RecentKeys<uint32_t, 256>).
TEST(RecentKeys, The257thDistinctKeyEvictsTheOldest) {
  util::RecentKeys<std::uint32_t, 256> window;
  for (std::uint32_t key = 1; key <= 256; ++key) {
    EXPECT_TRUE(window.remember(key));
  }
  EXPECT_EQ(window.size(), 256u);
  for (std::uint32_t key = 1; key <= 256; ++key) {
    EXPECT_TRUE(window.contains(key)) << key;
  }
  // A repeat is refused and does not refresh or evict anything.
  EXPECT_FALSE(window.remember(1));
  EXPECT_TRUE(window.contains(1));

  EXPECT_TRUE(window.remember(257));
  EXPECT_FALSE(window.contains(1)) << "the oldest key must be evicted";
  EXPECT_TRUE(window.contains(2));
  EXPECT_TRUE(window.contains(257));
  EXPECT_EQ(window.size(), 256u);

  // The evicted key is accepted again, and evicts the next oldest.
  EXPECT_TRUE(window.remember(1));
  EXPECT_TRUE(window.contains(1));
  EXPECT_FALSE(window.contains(2));
  EXPECT_TRUE(window.contains(3));
}

TEST(RecentKeys, EvictsInInsertionOrderAcrossManyWraps) {
  // Route discovery's RREQ window, 512 keys: after any number of
  // distinct keys, exactly the newest 512 are members.
  util::RecentKeys<std::uint64_t, 512> window;
  for (std::uint64_t key = 0; key < 3000; ++key) {
    ASSERT_TRUE(window.remember(key * 7919));
    if (key % 250 == 0 || key == 2999) {
      for (std::uint64_t old = 0; old <= key; ++old) {
        ASSERT_EQ(window.contains(old * 7919), key - old < 512)
            << "after " << key << ", key " << old;
      }
    }
  }
}

}  // namespace
}  // namespace hydra
