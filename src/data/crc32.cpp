#include "data/crc32.hpp"

#include <array>

namespace ipa::data {
namespace {

// Slicing-by-8: kTables[0] is the classic bytewise table; kTables[k][b] is
// the CRC of byte b followed by k zero bytes, so eight table lookups fold
// one 8-byte word into the state per step.
using Table = std::array<std::uint32_t, 256>;

constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr auto kTables = make_tables();

}  // namespace

void Crc32::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = state_;
  // Bytes are assembled explicitly (little-endian), so the word step needs
  // no alignment and gives the same value on any host byte order.
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                                  std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    c = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^ kTables[5][(lo >> 16) & 0xff] ^
        kTables[4][lo >> 24] ^ kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
        kTables[0][p[7]];
  }
  for (; len > 0; ++p, --len) {
    c = kTables[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  state_ = c;
}

}  // namespace ipa::data
