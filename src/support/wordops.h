// Word-parallel building blocks shared by the Wordwise statistics engine.
//
// The byte tables summarise the ±1 random walk of eight bits at a time
// (bit set -> +1, clear -> -1): the net displacement plus the extreme
// partial sums over the byte's non-empty prefixes.  A walk kernel adds the
// running sum to the prefix extremes to recover the exact per-bit extremes
// without visiting individual bits.  Tables exist for both traversal
// orders because the cumulative-sums test walks the stream forward
// (LSB-first within a packed word) and backward (MSB-first).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "support/bitstream.h"

namespace dhtrng::support::wordops {

struct ByteWalk {
  std::int8_t delta;       ///< sum of the eight ±1 steps
  std::int8_t max_prefix;  ///< max over the 8 non-empty prefix sums
  std::int8_t min_prefix;  ///< min over the 8 non-empty prefix sums
};

namespace detail {
constexpr std::array<ByteWalk, 256> make_walk_table(bool msb_first) {
  std::array<ByteWalk, 256> table{};
  for (int value = 0; value < 256; ++value) {
    int sum = 0;
    int max_prefix = -9;
    int min_prefix = 9;
    for (int step = 0; step < 8; ++step) {
      const int bit = msb_first ? (value >> (7 - step)) & 1 : (value >> step) & 1;
      sum += bit ? 1 : -1;
      if (sum > max_prefix) max_prefix = sum;
      if (sum < min_prefix) min_prefix = sum;
    }
    table[static_cast<std::size_t>(value)] = {
        static_cast<std::int8_t>(sum), static_cast<std::int8_t>(max_prefix),
        static_cast<std::int8_t>(min_prefix)};
  }
  return table;
}
}  // namespace detail

/// Walk table for bits taken LSB-first (stream order within a packed word).
inline constexpr std::array<ByteWalk, 256> kWalkForward =
    detail::make_walk_table(false);
/// Walk table for bits taken MSB-first (reverse stream order).
inline constexpr std::array<ByteWalk, 256> kWalkBackward =
    detail::make_walk_table(true);

/// Reverse the low `m` bits of `v` (m <= 64).  Maps an LSB-first window
/// value to the MSB-first convention used by the scalar pattern kernels.
constexpr std::uint64_t bit_reverse(std::uint64_t v, unsigned m) {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < m; ++i) {
    r = (r << 1) | ((v >> i) & 1u);
  }
  return r;
}

/// Reverse the bit order inside each of the eight bytes of `v`, leaving
/// the byte order alone.  Maps a word of eight LSB-first packed bytes to
/// eight MSB-first packed bytes and back (the map is its own inverse).
constexpr std::uint64_t reverse_bits_in_bytes(std::uint64_t v) {
  v = ((v >> 1) & 0x5555555555555555u) | ((v & 0x5555555555555555u) << 1);
  v = ((v >> 2) & 0x3333333333333333u) | ((v & 0x3333333333333333u) << 2);
  return ((v >> 4) & 0x0f0f0f0f0f0f0f0fu) | ((v & 0x0f0f0f0f0f0f0f0fu) << 4);
}

/// Call `emit(value, length)` for each maximal run of identical bits in
/// [begin, begin + len) of the stream, in order.  Runs are consumed with
/// trailing-one counts on 64-bit chunks, so the cost is O(runs + len/64)
/// rather than one branch per bit.
template <typename Fn>
inline void for_each_run(const BitStream& bits, std::size_t begin,
                         std::size_t len, Fn&& emit) {
  std::size_t i = 0;
  while (i < len) {
    const bool v = bits.chunk64(begin + i) & 1;
    std::size_t j = i;
    while (j < len) {
      std::uint64_t x = bits.chunk64(begin + j);
      if (!v) x = ~x;  // count the run as trailing ones either way
      const std::size_t valid = std::min<std::size_t>(64, len - j);
      const std::size_t k = std::min<std::size_t>(
          static_cast<std::size_t>(std::countr_one(x)), valid);
      j += k;
      if (k < valid || valid < 64) break;  // run ended, or stream ended
    }
    emit(v, j - i);
    i = j;
  }
}

}  // namespace dhtrng::support::wordops
