#pragma once
/// \file ghost_frame.hpp
/// Wire format of stage 5's ghost round: a rank ships the adjacency row of
/// each owned vertex to every rank that owns one of its neighbours.
///
///   frame    u32 gid, u32 deg, then deg × (u32 col, u32 overlap_len)
///
/// A source rank's stream is its frames back to back. Gids ride as u32 (the
/// stage checks that the read set fits). The decoder validates every frame
/// before it stages the row: deg >= 1, gid < N and owned by the source rank,
/// and every col < N and != gid.

#include <cstddef>
#include <vector>

#include "sgraph/csr.hpp"
#include "util/common.hpp"

namespace dibella::sgraph::ghost_frame {

/// Append the frame of vertex `gid`'s adjacency row `row[0..deg)`.
void append_row(std::vector<u8>& buf, u64 gid, const CsrEntry* row, std::size_t deg);

/// Decode one source rank's stream and stage its rows in `adj`. The source
/// owns gids [source_first, source_end) of an `n_reads` read set. Throws
/// Error on a truncated frame or a frame that breaks the rules above.
void decode_stream(const u8* data, u64 size, u64 n_reads, u64 source_first, u64 source_end,
                   CsrAdjacency& adj);

}  // namespace dibella::sgraph::ghost_frame
