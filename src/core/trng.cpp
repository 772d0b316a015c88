#include "core/trng.h"

namespace dhtrng::core {

void TrngSource::generate_words(std::uint64_t* out, std::size_t n) {
  for (std::size_t w = 0; w < n; ++w) {
    std::uint64_t word = 0;
    for (unsigned b = 0; b < 64; ++b) {
      word |= static_cast<std::uint64_t>(next_bit()) << b;  // no data branch
    }
    out[w] = word;
  }
}

void TrngSource::generate(support::BitStream& out, std::size_t nbits) {
  out.reserve(out.size() + nbits);
  for (std::size_t i = 0; i < nbits; ++i) out.push_back(next_bit());
}

support::BitStream TrngSource::generate(std::size_t nbits) {
  support::BitStream bs;
  generate(bs, nbits);
  return bs;
}

}  // namespace dhtrng::core
