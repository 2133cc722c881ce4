#include "sgraph/string_graph.hpp"

#include <algorithm>
#include <utility>

#include "comm/exchanger.hpp"
#include "sgraph/csr.hpp"
#include "sgraph/fused_frame.hpp"
#include "sgraph/ghost_frame.hpp"
#include "util/radix_sort.hpp"

namespace dibella::sgraph {

namespace {

/// Bytes per destination per exchange batch of the stage-5 byte streams.
constexpr std::size_t kBatchBytes = std::size_t{1} << 20;

/// Irregular all-to-all of raw byte streams in bounded batches on
/// comm::Exchanger. Returns each source rank's received stream separately —
/// a byte slice may split a record across batches, so each source's stream
/// is accumulated whole, and consumers parse per source (frames never span
/// sources; ByteReader checks the framing). This rank's stream to itself
/// travels the exchange like every other, so transport faults reach it too.
/// Takes `outbound` by value, so its buffers are freed on return.
std::vector<std::vector<u8>> exchange_byte_streams(
    core::StageContext& ctx, std::vector<std::vector<u8>> outbound,
    const StringGraphConfig& cfg) {
  auto& comm = ctx.comm;
  const int P = comm.size();
  std::vector<std::vector<u8>> per_source(static_cast<std::size_t>(P));
  comm::Exchanger ex(comm, cfg.exchange);
  std::vector<std::size_t> cursors(static_cast<std::size_t>(P), 0);
  comm::run_exchange(
      ex,
      [&] {
        auto k = ctx.kernel("sgraph:pack");
        u64 before = ex.pending_bytes();
        bool more = comm::post_slices(ex, outbound, cursors, kBatchBytes);
        u64 packed = ex.pending_bytes() - before;
        k.units("bytes", packed, netsim::Kernel::kByteCopy).working_set(packed);
        return more;
      },
      [&](const comm::RecvBatch& batch) {
        auto k = ctx.kernel("sgraph:build");
        for (int s = 0; s < P; ++s) {
          batch.append_from(s, per_source[static_cast<std::size_t>(s)]);
        }
        k.units("bytes", batch.total_bytes(), netsim::Kernel::kByteCopy)
            .working_set(batch.total_bytes());
      });
  return per_source;
}

/// Strict total order on dovetail edges: (lo, hi) groups first, then the
/// best payload first (score, overlap, orientation bits). Shared by the
/// source-side and owner-side consolidations, so the per-pair winner is the
/// same no matter how many ranks the copies were scattered across.
bool dovetail_order(const DovetailEdge& x, const DovetailEdge& y) {
  if (x.lo != y.lo) return x.lo < y.lo;
  if (x.hi != y.hi) return x.hi < y.hi;
  if (x.score != y.score) return x.score > y.score;
  if (x.overlap_len != y.overlap_len) return x.overlap_len > y.overlap_len;
  if (x.same_orientation != y.same_orientation) {
    return x.same_orientation > y.same_orientation;
  }
  if (x.from_is_lo != y.from_is_lo) return x.from_is_lo > y.from_is_lo;
  if (x.rc_from != y.rc_from) return x.rc_from > y.rc_from;
  return x.rc_to > y.rc_to;
}

bool same_pair(const DovetailEdge& x, const DovetailEdge& y) {
  return x.lo == y.lo && x.hi == y.hi;
}

/// Consolidate `edges` to the single best record per (lo, hi) under
/// dovetail_order, leaving the result sorted by (lo, hi) — the same output
/// as sort(dovetail_order) + unique(same_pair). Two stable radix passes (by
/// hi, then by lo) make each pair's records contiguous; a scan keeps each
/// group's dovetail_order minimum, the copy unique() keeps after a full sort.
void consolidate_best_per_pair(std::vector<DovetailEdge>& edges) {
  util::radix_sort_u64(edges, [](const DovetailEdge& e) { return e.hi; });
  util::radix_sort_u64(edges, [](const DovetailEdge& e) { return e.lo; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < edges.size();) {
    std::size_t best = i;
    std::size_t j = i + 1;
    for (; j < edges.size() && same_pair(edges[j], edges[i]); ++j) {
      if (dovetail_order(edges[j], edges[best])) best = j;
    }
    edges[out++] = edges[best];
    i = j;
  }
  edges.resize(out);
}

}  // namespace

StringGraphShard run_string_graph_stage(
    core::StageContext& ctx, const io::ReadStore& store,
    align::RecordSource& local_records, const StringGraphConfig& cfg,
    StringGraphStageResult* result) {
  auto& comm = ctx.comm;
  comm.set_stage("sgraph");
  const int P = comm.size();
  const auto& partition = store.partition();
  StringGraphStageResult res;
  StringGraphShard shard;
  // Both exchange rounds carry gids as u32 wire fields.
  DIBELLA_CHECK(partition.total_reads() <= (u64{1} << 32),
                "sgraph: more than 2^32 reads do not fit the u32 gid wire fields");

  // --- (1) classify this rank's records; collect dovetails and mark
  // contained read ids in a gid-indexed byte map (the partition already
  // replicates O(num_reads) state, so the map costs nothing new and makes
  // every containment test O(1)). Both endpoint lengths come from the
  // partition's global length table (built identically on every rank), so
  // classification needs no collective — this used to be the stage's first
  // allgatherv. A dovetail whose endpoint is already marked is dropped on
  // the spot; the prefilter below re-checks the survivors once the local
  // evidence is complete, so the surviving set is order-independent.
  std::vector<DovetailEdge> dovetails;
  std::vector<u8> contained_mark(static_cast<std::size_t>(partition.total_reads()), 0);
  align::AlignmentRecord rec;
  auto classify = ctx.kernel("sgraph:classify");
  while (local_records.next(rec)) {
    ++res.records_in;
    if (rec.rid_a == rec.rid_b) {
      ++res.self_overlaps;  // a self-overlap is a repeat, not a layout edge
      continue;
    }
    if (rec.score < cfg.min_overlap_score) {
      ++res.below_min_score;
      continue;
    }
    auto geom = classify_alignment(rec, partition.length(rec.rid_a),
                                   partition.length(rec.rid_b), cfg.fuzz);
    switch (geom.cls) {
      case EdgeClass::kInternal:
        ++res.internal_records;
        break;
      case EdgeClass::kContainedA:
        ++res.containment_records;
        contained_mark[static_cast<std::size_t>(rec.rid_a)] = 1;
        break;
      case EdgeClass::kContainedB:
        ++res.containment_records;
        contained_mark[static_cast<std::size_t>(rec.rid_b)] = 1;
        break;
      case EdgeClass::kDovetail:
        ++res.dovetail_records;
        if (contained_mark[static_cast<std::size_t>(rec.rid_a)] ||
            contained_mark[static_cast<std::size_t>(rec.rid_b)]) {
          ++res.edges_dropped_contained;
        } else {
          dovetails.push_back(make_dovetail_edge(rec, geom));
        }
        break;
    }
  }
  classify.units("records", res.records_in, netsim::Kernel::kPairConsolidate)
      .working_set(res.records_in * sizeof(align::AlignmentRecord))
      .close();

  // --- (2) fused exchange round: one framed payload per peer carries this
  // rank's contained gid set (every peer needs it: a read contained per one
  // record may carry dovetails in records on any rank) together with the
  // dovetail edges owned by that peer (owner of either endpoint). This
  // fuses what used to be a contained-set allgatherv plus a separate edge
  // exchange into a single round.
  // Source-side consolidation before anything touches the wire. Local
  // containment evidence is a subset of the global union, so an edge this
  // rank can already see a contained endpoint for would be dropped at the
  // owner anyway — drop it here (the classify loop caught most of them; the
  // byte map is only complete now). Then keep one best copy per (lo, hi)
  // under the same total order the owners use, so the owner-side merge picks
  // the identical global winner from far fewer copies. On coverage-heavy
  // layouts this cuts the fused-round payload by an order of magnitude. The
  // wire carries the marks as a sorted gid list or a bitmap
  // (sgraph/fused_frame.hpp), built by one scan of the byte map and shared
  // by every peer's frame.
  std::vector<u64> contained_local;
  for (u64 g = 0; g < partition.total_reads(); ++g) {
    if (contained_mark[static_cast<std::size_t>(g)]) contained_local.push_back(g);
  }
  const fused_frame::ContainedSet contained_wire =
      fused_frame::encode_contained(contained_local, partition.total_reads());
  dovetails.erase(std::remove_if(dovetails.begin(), dovetails.end(),
                                 [&](const DovetailEdge& e) {
                                   if (!contained_mark[static_cast<std::size_t>(e.lo)] &&
                                       !contained_mark[static_cast<std::size_t>(e.hi)]) {
                                     return false;
                                   }
                                   ++res.edges_dropped_contained;
                                   return true;
                                 }),
                  dovetails.end());
  consolidate_best_per_pair(dovetails);
  // Route each surviving edge to both endpoint owners, serialized straight
  // into the per-destination wire buffers (no per-destination edge vectors
  // in between): one counting pass sizes each buffer and writes its header,
  // a second pass appends the edges — still in (lo, hi) order, since a
  // per-destination subsequence of a sorted sequence stays sorted.
  std::vector<u64> n_edges_for(static_cast<std::size_t>(P), 0);
  for (const auto& e : dovetails) {
    const int d1 = partition.owner_of(e.lo);
    const int d2 = partition.owner_of(e.hi);
    ++n_edges_for[static_cast<std::size_t>(d1)];
    if (d2 != d1) ++n_edges_for[static_cast<std::size_t>(d2)];
  }
  std::vector<std::vector<u8>> fused_out(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    fused_frame::append_header(fused_out[static_cast<std::size_t>(d)], contained_wire,
                               n_edges_for[static_cast<std::size_t>(d)]);
  }
  for (const auto& e : dovetails) {
    const int d1 = partition.owner_of(e.lo);
    const int d2 = partition.owner_of(e.hi);
    fused_frame::append_edge(fused_out[static_cast<std::size_t>(d1)], e);
    if (d2 != d1) fused_frame::append_edge(fused_out[static_cast<std::size_t>(d2)], e);
  }

  std::vector<DovetailEdge> incident;  // every edge with an owned endpoint
  std::vector<std::size_t> bounds{0};  // ends of the per-source sorted runs
  {
    obs::Span span = ctx.span("sgraph:edge_exchange");
    std::vector<std::vector<u8>> streams =
        exchange_byte_streams(ctx, std::move(fused_out), cfg);
    u64 recv_bytes = 0;
    for (const auto& s : streams) recv_bytes += s.size();
    span.arg("bytes", recv_bytes);
    for (const auto& stream : streams) {
      fused_frame::decode_stream(stream.data(), stream.size(), contained_mark, incident,
                                 bounds);
    }
    span.arg("edges", incident.size());
  }
  const u64 first_owned = partition.first_gid(comm.rank());
  const u64 owned_count = partition.count(comm.rank());
  for (u64 i = 0; i < owned_count; ++i) {
    if (contained_mark[static_cast<std::size_t>(first_owned + i)]) {
      ++res.contained_reads;
    }
  }

  // Each source pre-sorted its edges under the shared total order, so the
  // received stream is a concatenation of sorted runs — merge them instead
  // of re-sorting from scratch.
  while (bounds.size() > 2) {
    std::vector<std::size_t> next{0};
    std::size_t i = 0;
    for (; i + 2 < bounds.size(); i += 2) {
      std::inplace_merge(incident.begin() + static_cast<std::ptrdiff_t>(bounds[i]),
                         incident.begin() + static_cast<std::ptrdiff_t>(bounds[i + 1]),
                         incident.begin() + static_cast<std::ptrdiff_t>(bounds[i + 2]),
                         dovetail_order);
      next.push_back(bounds[i + 2]);
    }
    if (i + 1 < bounds.size()) next.push_back(bounds.back());  // odd run carried over
    bounds = std::move(next);
  }

  // Drop incident edges whose contained endpoint only the global union
  // reveals (the sender's local evidence already filtered the rest), counted
  // where the drop happens — the rest of the copies were tallied at their
  // source ranks above. Then keep the best edge per (lo, hi): both endpoint
  // owners receive the same candidate set, and best-of-local-bests under the
  // shared order is the global best.
  incident.erase(
      std::remove_if(incident.begin(), incident.end(),
                     [&](const DovetailEdge& e) {
                       if (!contained_mark[static_cast<std::size_t>(e.lo)] &&
                           !contained_mark[static_cast<std::size_t>(e.hi)]) {
                         return false;
                       }
                       ++res.edges_dropped_contained;
                       return true;
                     }),
      incident.end());
  incident.erase(std::unique(incident.begin(), incident.end(), same_pair),
                 incident.end());

  // --- (3) owned adjacency (complete for every owned vertex: both owners
  // receive each edge) and the rank's decidable edge count (owner of lo).
  // Flat counting-sort CSR build (count, prefix, scatter) rather than one
  // vector per owned vertex: rows average a couple of entries, so the
  // per-vertex vectors cost more in allocator traffic than the adjacency
  // itself. Row i spans [own_off[i], own_off[i + 1]) of own_entries.
  auto build = ctx.kernel("sgraph:build");
  build.units("edges", incident.size(), netsim::Kernel::kPairConsolidate)
      .working_set(incident.size() * sizeof(DovetailEdge));
  std::vector<u64> own_off(static_cast<std::size_t>(owned_count) + 1, 0);
  for (const auto& e : incident) {
    if (partition.owner_of(e.lo) == comm.rank()) {
      ++own_off[static_cast<std::size_t>(e.lo - first_owned) + 1];
      ++res.edges_owned;
    }
    if (partition.owner_of(e.hi) == comm.rank()) {
      ++own_off[static_cast<std::size_t>(e.hi - first_owned) + 1];
    }
  }
  for (u64 i = 0; i < owned_count; ++i) {
    own_off[static_cast<std::size_t>(i) + 1] += own_off[static_cast<std::size_t>(i)];
  }
  std::vector<CsrEntry> own_entries(
      static_cast<std::size_t>(own_off[static_cast<std::size_t>(owned_count)]));
  {
    std::vector<u64> cursor(own_off.begin(), own_off.end() - 1);
    for (const auto& e : incident) {
      if (partition.owner_of(e.lo) == comm.rank()) {
        own_entries[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(e.lo - first_owned)]++)] =
            CsrEntry{e.hi, e.overlap_len};
      }
      if (partition.owner_of(e.hi) == comm.rank()) {
        own_entries[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(e.hi - first_owned)]++)] =
            CsrEntry{e.lo, e.overlap_len};
      }
    }
  }
  build.close();

  // --- (4) ghost exchange: ship each owned vertex's adjacency to every
  // rank owning one of its neighbours, framed as (gid, deg, [col, ov]*).
  // That gives each rank the full two-hop context around its incident
  // edges, so cross-rank triangles are decided locally — by *both* endpoint
  // owners, which is what lets the reduced adjacency (and the unitig walk)
  // stay rank-local afterwards.
  std::vector<std::vector<u8>> ghost_out(static_cast<std::size_t>(P));
  {
    std::vector<int> dests;
    for (u64 i = 0; i < owned_count; ++i) {
      const CsrEntry* row = own_entries.data() + own_off[static_cast<std::size_t>(i)];
      const std::size_t deg = static_cast<std::size_t>(
          own_off[static_cast<std::size_t>(i) + 1] - own_off[static_cast<std::size_t>(i)]);
      if (deg == 0) continue;
      dests.clear();
      for (std::size_t k = 0; k < deg; ++k) {
        int d = partition.owner_of(row[k].col);
        if (d != comm.rank()) dests.push_back(d);
      }
      std::sort(dests.begin(), dests.end());
      dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
      for (int d : dests) {
        ghost_frame::append_row(ghost_out[static_cast<std::size_t>(d)], first_owned + i, row,
                                deg);
      }
    }
  }
  CsrAdjacency adj;
  {
    obs::Span span = ctx.span("sgraph:ghost_exchange");
    u64 ghost_bytes = 0;
    for (const auto& v : ghost_out) ghost_bytes += v.size();
    span.arg("sent_bytes", ghost_bytes);
    std::vector<std::vector<u8>> streams =
        exchange_byte_streams(ctx, std::move(ghost_out), cfg);
    u64 recv_bytes = 0;
    for (const auto& s : streams) recv_bytes += s.size();
    span.arg("recv_bytes", recv_bytes);
    auto csr = ctx.kernel("sgraph:csr");
    for (int src = 0; src < P; ++src) {
      const auto& stream = streams[static_cast<std::size_t>(src)];
      ghost_frame::decode_stream(stream.data(), stream.size(), partition.total_reads(),
                                 partition.first_gid(src), partition.first_gid(src + 1), adj);
    }
    for (u64 i = 0; i < owned_count; ++i) {
      const std::size_t deg = static_cast<std::size_t>(
          own_off[static_cast<std::size_t>(i) + 1] - own_off[static_cast<std::size_t>(i)]);
      if (deg != 0) {
        adj.add_row(first_owned + i,
                    own_entries.data() + own_off[static_cast<std::size_t>(i)], deg);
      }
    }
    adj.seal();
    csr.arg("rows", adj.rows())
        .units("nonzeros", adj.nonzeros(), netsim::Kernel::kPairConsolidate)
        .working_set(adj.nonzeros() * sizeof(CsrEntry));
  }

  // --- (5) transitive reduction as a masked CSR semiring product: one
  // merge-scan row product per incident edge (sgraph/csr.hpp). Every
  // verdict is evaluated against the original edge set through the strict
  // total order (edge_outranks), so marks commute: the result is
  // independent of evaluation order and of which rank decides which edge —
  // and both endpoint owners, holding identical rows for both endpoints,
  // reach the identical verdict. Counters stay owner-of-lo so the global
  // sums are plain.
  auto reduce = ctx.kernel("sgraph:reduce");
  reduce.arg("edges", incident.size());
  std::vector<std::vector<u64>> reduced(static_cast<std::size_t>(owned_count));
  for (const auto& e : incident) {
    const bool own_lo = partition.owner_of(e.lo) == comm.rank();
    const bool transitive =
        csr_transitive_step(adj, e.lo, e.hi, e.overlap_len, &res.triangle_probes);
    if (transitive) {
      if (own_lo) ++res.edges_removed;
      continue;
    }
    if (own_lo) {
      shard.surviving_edges.push_back(e);
      reduced[static_cast<std::size_t>(e.lo - first_owned)].push_back(e.hi);
    }
    if (partition.owner_of(e.hi) == comm.rank()) {
      reduced[static_cast<std::size_t>(e.hi - first_owned)].push_back(e.lo);
    }
  }
  res.edges_surviving = shard.surviving_edges.size();
  reduce.units("probes", res.triangle_probes, netsim::Kernel::kGraphProbe)
      .working_set(incident.size() * sizeof(DovetailEdge))
      .close();

  // --- (6) distributed unitig walk: compress this rank's owned slice of
  // the reduced graph into terminals + interior runs + fully-owned cycles.
  // The iteration above pushed each reduced row in ascending neighbour
  // order (incident is (lo, hi)-sorted), as build_walk_fragment requires.
  {
    auto walk = ctx.kernel("sgraph:walk");
    shard.walk = build_walk_fragment(first_owned, reduced);
    u64 reduced_vertices = 0;
    for (const auto& row : reduced) reduced_vertices += row.empty() ? 0 : 1;
    walk.arg("terminals", shard.walk.terminals.size())
        .arg("runs", shard.walk.runs.size())
        .units("vertices", reduced_vertices, netsim::Kernel::kPairConsolidate)
        .working_set(reduced_vertices * sizeof(u64));
  }

  if (result) *result = res;
  return shard;
}

StringGraphShard run_string_graph_stage(
    core::StageContext& ctx, const io::ReadStore& store,
    const std::vector<align::AlignmentRecord>& local_records,
    const StringGraphConfig& cfg, StringGraphStageResult* result) {
  align::VectorRecordSource source(local_records);
  return run_string_graph_stage(ctx, store, source, cfg, result);
}

StringGraphOutput finalize_string_graph(std::vector<StringGraphShard> shards) {
  StringGraphOutput out;
  std::size_t total = 0;
  for (const auto& s : shards) total += s.surviving_edges.size();
  out.surviving_edges.reserve(total);
  for (auto& s : shards) {
    out.surviving_edges.insert(out.surviving_edges.end(), s.surviving_edges.begin(),
                               s.surviving_edges.end());
  }
  // Contiguous ascending gid ownership makes the rank-order concatenation
  // the canonical global (lo, hi) order already; verify, don't re-sort.
  for (std::size_t i = 1; i < out.surviving_edges.size(); ++i) {
    const auto& a = out.surviving_edges[i - 1];
    const auto& b = out.surviving_edges[i];
    DIBELLA_CHECK(a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi),
                  "finalize_string_graph: shard edges out of canonical order");
  }
  std::vector<WalkFragment> frags;
  frags.reserve(shards.size());
  for (auto& s : shards) frags.push_back(std::move(s.walk));
  out.layout = stitch_unitigs(frags);
  return out;
}

}  // namespace dibella::sgraph
