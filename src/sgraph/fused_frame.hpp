#pragma once
/// \file fused_frame.hpp
/// Wire format of stage 5's fused exchange round: one frame per (source,
/// destination) pair carrying the source's locally-discovered contained gid
/// set followed by the dovetail edges routed to that destination.
///
///   header   contained_words, n_edges, contained_as_bitmap   (3 × u64)
///   words    contained_words × u64: a sorted gid list, or a bitmap over
///            the global gid space (whichever is smaller)
///   edges    n_edges × 16-byte records (u32 lo, u32 hi, u32 overlap_len |
///            orientation flags << 28, i32 score), strictly increasing in
///            (lo, hi)
///
/// Gids ride as u32, so the read set holds at most 2^32 reads, and overlap
/// lengths ride in 28 bits; both limits are checked at encode time. The
/// decoder validates every value it reads against the global read count
/// before it indexes anything with it.

#include <cstddef>
#include <vector>

#include "sgraph/edge_class.hpp"
#include "util/common.hpp"

namespace dibella::sgraph::fused_frame {

/// A frame's contained-set section, shared by every destination's frame.
struct ContainedSet {
  std::vector<u64> words;
  bool bitmap = false;
};

/// Encode the sorted contained gids of an `n_reads` read set as a gid list
/// or a bitmap, whichever takes fewer words.
ContainedSet encode_contained(const std::vector<u64>& sorted_gids, u64 n_reads);

/// Append a frame header and its contained-set words, reserving room for
/// the whole frame; `n_edges` edges must follow (append_edge), in strictly
/// increasing (lo, hi) order.
void append_header(std::vector<u8>& buf, const ContainedSet& contained, u64 n_edges);

/// Append one edge record. Throws Error when `e` does not fit the wire
/// record (a gid >= 2^32 or an overlap length >= 2^28).
void append_edge(std::vector<u8>& buf, const DovetailEdge& e);

/// Decode one source's stream of frames. Folds the contained sets into
/// `contained_mark` (one byte per read; its size is the read count N),
/// appends the edges to `incident`, and pushes the end of each non-empty
/// edge run onto `bounds` (non-empty: its last entry ends the previous
/// run). Throws Error on a truncated frame, a contained gid >= N, a bitmap
/// longer than ceil(N/64) words or with bits set past N, or an edge that
/// breaks lo < hi < N or the frame's (lo, hi) order.
void decode_stream(const u8* data, u64 size, std::vector<u8>& contained_mark,
                   std::vector<DovetailEdge>& incident, std::vector<std::size_t>& bounds);

}  // namespace dibella::sgraph::fused_frame
