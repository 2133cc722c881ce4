#include "sgraph/fused_frame.hpp"

#include <bit>
#include <cstring>

#include "comm/exchanger.hpp"

namespace dibella::sgraph::fused_frame {

namespace {

struct Header {
  u64 contained_words = 0;
  u64 n_edges = 0;
  u64 contained_as_bitmap = 0;
};
static_assert(std::is_trivially_copyable_v<Header>);

/// Compact wire form of a DovetailEdge — half the in-memory struct; the four
/// orientation flags ride the top nibble of ov_flags.
struct WireEdge {
  u32 lo = 0;
  u32 hi = 0;
  u32 ov_flags = 0;
  i32 score = 0;
};
static_assert(std::is_trivially_copyable_v<WireEdge>);
constexpr u32 kWireOverlapBits = 28;
constexpr u32 kWireOverlapMask = (u32{1} << kWireOverlapBits) - 1;

template <class T>
void append_bytes(std::vector<u8>& out, const T* v, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::size_t at = out.size();
  out.resize(at + n * sizeof(T));
  if (n != 0) std::memcpy(out.data() + at, v, n * sizeof(T));
}

DovetailEdge unpack_edge(const WireEdge& w) {
  DovetailEdge e;
  e.lo = w.lo;
  e.hi = w.hi;
  e.overlap_len = w.ov_flags & kWireOverlapMask;
  e.score = w.score;
  const u32 flags = w.ov_flags >> kWireOverlapBits;
  e.same_orientation = static_cast<u8>(flags & 1);
  e.from_is_lo = static_cast<u8>((flags >> 1) & 1);
  e.rc_from = static_cast<u8>((flags >> 2) & 1);
  e.rc_to = static_cast<u8>((flags >> 3) & 1);
  return e;
}

}  // namespace

ContainedSet encode_contained(const std::vector<u64>& sorted_gids, u64 n_reads) {
  ContainedSet out;
  const u64 bitmap_words = (n_reads + 63) / 64;
  out.bitmap = bitmap_words < sorted_gids.size();
  if (out.bitmap) {
    out.words.assign(static_cast<std::size_t>(bitmap_words), 0);
    for (u64 g : sorted_gids) {
      out.words[static_cast<std::size_t>(g >> 6)] |= u64{1} << (g & 63);
    }
  } else {
    out.words = sorted_gids;
  }
  return out;
}

void append_header(std::vector<u8>& buf, const ContainedSet& contained, u64 n_edges) {
  const Header h{contained.words.size(), n_edges, contained.bitmap ? u64{1} : u64{0}};
  buf.reserve(buf.size() + sizeof(Header) + contained.words.size() * sizeof(u64) +
              n_edges * sizeof(WireEdge));
  append_bytes(buf, &h, 1);
  append_bytes(buf, contained.words.data(), contained.words.size());
}

void append_edge(std::vector<u8>& buf, const DovetailEdge& e) {
  DIBELLA_CHECK(e.hi <= 0xFFFFFFFFull, "sgraph: edge gid does not fit the u32 wire field");
  DIBELLA_CHECK(e.overlap_len <= kWireOverlapMask,
                "sgraph: overlap length does not fit the 28-bit wire field");
  const u32 flags = static_cast<u32>(e.same_orientation != 0) |
                    (static_cast<u32>(e.from_is_lo != 0) << 1) |
                    (static_cast<u32>(e.rc_from != 0) << 2) |
                    (static_cast<u32>(e.rc_to != 0) << 3);
  const WireEdge w{static_cast<u32>(e.lo), static_cast<u32>(e.hi),
                   e.overlap_len | (flags << kWireOverlapBits), e.score};
  append_bytes(buf, &w, 1);
}

void decode_stream(const u8* data, u64 size, std::vector<u8>& contained_mark,
                   std::vector<DovetailEdge>& incident, std::vector<std::size_t>& bounds) {
  const u64 n_reads = contained_mark.size();
  comm::ByteReader reader(data, size);
  std::vector<u64> words;
  std::vector<WireEdge> wire_edges;
  while (!reader.empty()) {
    const auto h = reader.read<Header>();
    DIBELLA_CHECK(h.contained_as_bitmap <= 1, "sgraph: bad fused-frame contained mode");
    words.clear();
    reader.read_into(words, h.contained_words);
    // Fold the sender's marks straight into this rank's byte map: after the
    // round it holds the global union.
    if (h.contained_as_bitmap != 0) {
      DIBELLA_CHECK(words.size() <= (n_reads + 63) / 64,
                    "sgraph: contained bitmap longer than the read set");
      for (std::size_t wi = 0; wi < words.size(); ++wi) {
        u64 w = words[wi];
        while (w != 0) {
          const u64 g = wi * 64 + static_cast<u64>(std::countr_zero(w));
          DIBELLA_CHECK(g < n_reads, "sgraph: contained bitmap bit past the read set");
          contained_mark[static_cast<std::size_t>(g)] = 1;
          w &= w - 1;
        }
      }
    } else {
      for (u64 g : words) {
        DIBELLA_CHECK(g < n_reads, "sgraph: contained gid out of range");
        contained_mark[static_cast<std::size_t>(g)] = 1;
      }
    }
    wire_edges.clear();
    reader.read_into(wire_edges, h.n_edges);
    incident.reserve(incident.size() + wire_edges.size());
    for (std::size_t i = 0; i < wire_edges.size(); ++i) {
      const WireEdge& w = wire_edges[i];
      DIBELLA_CHECK(w.lo < w.hi && w.hi < n_reads, "sgraph: fused-frame edge out of range");
      DIBELLA_CHECK(i == 0 || wire_edges[i - 1].lo < w.lo ||
                        (wire_edges[i - 1].lo == w.lo && wire_edges[i - 1].hi < w.hi),
                    "sgraph: fused-frame edges out of (lo, hi) order");
      incident.push_back(unpack_edge(w));
    }
    if (incident.size() != bounds.back()) bounds.push_back(incident.size());
  }
}

}  // namespace dibella::sgraph::fused_frame
