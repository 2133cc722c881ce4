#pragma once
/// \file checksum.hpp
/// CRC-32 (the zlib/IEEE 802.3 polynomial) for payload framing: exchange
/// messages, alignment spill runs, and stage checkpoints all carry a CRC so a
/// dropped, truncated, or bit-flipped payload is detected instead of being
/// consumed as garbage.

#include <cstddef>

#include "util/common.hpp"

namespace dibella::util {

/// CRC-32 of `n` bytes at `data`. Chainable: pass a previous result as
/// `seed` to continue a running checksum over a split buffer —
/// crc32(b, nb, crc32(a, na)) == crc32(ab, na + nb). Seed 0 starts fresh.
u32 crc32(const void* data, std::size_t n, u32 seed = 0);

}  // namespace dibella::util
