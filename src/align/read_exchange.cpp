#include "align/read_exchange.hpp"

#include <algorithm>
#include <set>

#include "comm/exchanger.hpp"

namespace dibella::align {

namespace {
/// Serialized reply record size in the reply byte stream: u64 gid + u32
/// length + the characters (fields are written individually, so no struct
/// padding travels).
constexpr std::size_t kReplyHeaderBytes = sizeof(u64) + sizeof(u32);
}  // namespace

ReadExchangeResult run_read_exchange(core::StageContext& ctx, io::ReadStore& store,
                                     const std::vector<overlap::AlignmentTask>& tasks,
                                     const ReadExchangeConfig& cfg) {
  auto& comm = ctx.comm;
  comm.set_stage("align");
  const int P = comm.size();
  const auto& partition = store.partition();
  ReadExchangeResult res;
  obs::Span fetch_span = ctx.span("align:read_exchange");

  // --- collect distinct remote gids, bucketed by owning rank.
  std::vector<std::vector<u64>> requests(static_cast<std::size_t>(P));
  {
    auto k = ctx.kernel("align:pack");
    k.units("tasks", tasks.size(), netsim::Kernel::kPairConsolidate)
        .working_set(tasks.size() * sizeof(overlap::AlignmentTask));
    std::set<u64> needed;
    for (const auto& t : tasks) {
      if (!store.is_local(t.rid_a)) needed.insert(t.rid_a);
      if (!store.is_local(t.rid_b)) needed.insert(t.rid_b);
    }
    res.reads_requested = needed.size();
    for (u64 gid : needed) {
      requests[static_cast<std::size_t>(partition.owner_of(gid))].push_back(gid);
    }
  }

  comm::Exchanger ex(comm, cfg.exchange);

  // --- phase A: request ids travel to owners in bounded batches; each
  // arrived batch is filed per requester.
  std::vector<std::vector<u64>> incoming_requests(static_cast<std::size_t>(P));
  {
    std::vector<std::size_t> cursors(static_cast<std::size_t>(P), 0);
    comm::run_exchange(
        ex,
        [&] { return comm::post_slices(ex, requests, cursors, cfg.batch_request_gids); },
        [&](const comm::RecvBatch& batch) {
          for (int s = 0; s < P; ++s) {
            batch.append_from(s, incoming_requests[static_cast<std::size_t>(s)]);
          }
        });
  }

  // --- phase B: owners stream the requested reads back as framed
  // (gid, length, chars) records. Overlapped, batch i+1 is serialized and
  // batch i-1 deserialized into the cache while batch i is in flight — the
  // stage's dominant payload (the read strings) never idles the rank.
  std::vector<std::size_t> reply_cursors(static_cast<std::size_t>(P), 0);
  std::vector<io::Read> fetched;
  comm::run_exchange(
      ex,
      [&] {
        auto k = ctx.kernel("align:pack");
        u64 packed = 0;
        bool remaining = false;
        // The byte budget applies per destination, not per batch: serving
        // requesters round-robin keeps every batch's send/recv volumes
        // balanced across peers, so batching costs no extra modeled
        // bandwidth (sum of per-batch maxima == the single-exchange max).
        for (int requester = 0; requester < P; ++requester) {
          const auto& gids = incoming_requests[static_cast<std::size_t>(requester)];
          auto& cur = reply_cursors[static_cast<std::size_t>(requester)];
          u64 packed_dest = 0;
          while (cur < gids.size() && packed_dest < cfg.batch_reply_bytes) {
            const io::Read& r = store.local_read(gids[cur]);
            u64 gid = gids[cur];
            u32 len = static_cast<u32>(r.seq.size());
            ex.post(requester, &gid, 1);
            ex.post(requester, &len, 1);
            ex.post(requester, r.seq.data(), r.seq.size());
            packed_dest += kReplyHeaderBytes + r.seq.size();
            ++res.reads_served;
            ++cur;
          }
          packed += packed_dest;
          if (cur < gids.size()) remaining = true;
        }
        k.units("bytes", packed, netsim::Kernel::kByteCopy).working_set(packed);
        return remaining;
      },
      [&](const comm::RecvBatch& batch) {
        auto k = ctx.kernel("align:cache");
        u64 batch_bytes = 0;
        for (int owner = 0; owner < P; ++owner) {
          // A truncated header or a payload shorter than its header raises
          // ByteReader's typed error instead of reading past the frame.
          comm::ByteReader in(batch.src_data(owner), batch.src_size_bytes(owner));
          while (!in.empty()) {
            io::Read r;
            r.gid = in.read<u64>();
            r.name = "remote";
            const u32 len = in.read<u32>();
            r.seq.assign(reinterpret_cast<const char*>(in.take(len)), len);
            res.bytes_received += len;
            batch_bytes += len;
            fetched.push_back(std::move(r));
          }
        }
        k.units("bytes", batch_bytes, netsim::Kernel::kByteCopy)
            .working_set(batch_bytes);
      });
  store.cache_remote_bulk(std::move(fetched));
  fetch_span.arg("reads", res.reads_requested);
  fetch_span.arg("bytes", res.bytes_received);
  return res;
}

}  // namespace dibella::align
