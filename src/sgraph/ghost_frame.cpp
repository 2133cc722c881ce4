#include "sgraph/ghost_frame.hpp"

#include <cstring>
#include <type_traits>

#include "comm/exchanger.hpp"

namespace dibella::sgraph::ghost_frame {

namespace {

struct FrameHeader {
  u32 gid = 0;
  u32 deg = 0;
};
static_assert(std::is_trivially_copyable_v<FrameHeader>);

struct WireCsr {
  u32 col = 0;
  u32 ov = 0;
};
static_assert(std::is_trivially_copyable_v<WireCsr>);

template <class T>
void append_bytes(std::vector<u8>& out, const T& v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

}  // namespace

void append_row(std::vector<u8>& buf, u64 gid, const CsrEntry* row, std::size_t deg) {
  append_bytes(buf, FrameHeader{static_cast<u32>(gid), static_cast<u32>(deg)});
  for (std::size_t k = 0; k < deg; ++k) {
    append_bytes(buf, WireCsr{static_cast<u32>(row[k].col), row[k].ov});
  }
}

void decode_stream(const u8* data, u64 size, u64 n_reads, u64 source_first, u64 source_end,
                   CsrAdjacency& adj) {
  comm::ByteReader reader(data, size);
  std::vector<CsrEntry> row;  // reused per frame; add_row copies it
  while (!reader.empty()) {
    const auto h = reader.read<FrameHeader>();
    DIBELLA_CHECK(h.deg >= 1, "ghost frame: empty adjacency row");
    DIBELLA_CHECK(h.gid < n_reads && h.gid >= source_first && h.gid < source_end,
                  "ghost frame: vertex not owned by its source rank");
    DIBELLA_CHECK(h.deg <= reader.remaining() / sizeof(WireCsr),
                  "ghost frame: truncated adjacency row");
    row.clear();
    for (u32 k = 0; k < h.deg; ++k) {
      const auto w = reader.read<WireCsr>();
      DIBELLA_CHECK(w.col < n_reads && w.col != h.gid,
                    "ghost frame: neighbour out of range or a self loop");
      row.push_back(CsrEntry{w.col, w.ov});
    }
    adj.add_row(h.gid, row.data(), row.size());
  }
}

}  // namespace dibella::sgraph::ghost_frame
