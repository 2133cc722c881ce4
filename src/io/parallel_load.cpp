#include "io/parallel_load.hpp"

#include "comm/exchanger.hpp"
#include "io/fastx.hpp"

namespace dibella::io {

namespace {
/// Wire header of one serialized read record: string lengths, in order
/// name, seq, qual.
struct RecordHeaderWire {
  u32 name_len = 0;
  u32 seq_len = 0;
  u32 qual_len = 0;
};
static_assert(std::is_trivially_copyable_v<RecordHeaderWire>);
}  // namespace

std::vector<Read> load_fastq_parallel(core::StageContext& ctx,
                                      std::string_view fastq_data) {
  auto& comm = ctx.comm;
  comm.set_stage("io");
  const int P = comm.size();

  // --- parse this rank's byte slice (record-boundary synchronized).
  auto parse = ctx.kernel("io:parse");
  auto bounds = split_byte_ranges(fastq_data.size(), P);
  auto mine = parse_fastq_range(fastq_data,
                                bounds[static_cast<std::size_t>(comm.rank())],
                                bounds[static_cast<std::size_t>(comm.rank()) + 1]);

  // --- serialize once (header + name/seq/qual bytes per record) and send
  // the same payload to every rank in one exchange batch; every rank
  // reassembles the global list in source-rank order, which is gid order.
  std::vector<u8> wire;
  u64 payload_bytes = 0;
  for (const auto& r : mine) {
    const RecordHeaderWire h{static_cast<u32>(r.name.size()),
                             static_cast<u32>(r.seq.size()),
                             static_cast<u32>(r.qual.size())};
    const u8* hp = reinterpret_cast<const u8*>(&h);
    wire.insert(wire.end(), hp, hp + sizeof(h));
    wire.insert(wire.end(), r.name.begin(), r.name.end());
    wire.insert(wire.end(), r.seq.begin(), r.seq.end());
    wire.insert(wire.end(), r.qual.begin(), r.qual.end());
    payload_bytes += r.name.size() + r.seq.size() + r.qual.size();
  }
  // Parsing and serializing cost four byte copies per payload byte.
  parse.units("byte_copies", 4 * payload_bytes, &core::KernelCosts::per_byte_copy)
      .working_set(payload_bytes)
      .close();

  std::vector<Read> reads;
  comm::Exchanger ex(comm);
  comm::run_exchange(
      ex,
      [&] {
        for (int d = 0; d < P; ++d) ex.post(d, wire);
        return false;
      },
      [&](const comm::RecvBatch& batch) {
        auto assemble = ctx.kernel("io:assemble");
        const auto take_string = [](comm::ByteReader& in, u32 n) {
          const char* p = reinterpret_cast<const char*>(in.take(n));
          return std::string(p, n);
        };
        for (int s = 0; s < P; ++s) {
          comm::ByteReader in(batch.src_data(s), batch.src_size_bytes(s));
          while (!in.empty()) {
            const auto h = in.read<RecordHeaderWire>();
            Read r;
            r.gid = reads.size();
            r.name = take_string(in, h.name_len);
            r.seq = take_string(in, h.seq_len);
            r.qual = take_string(in, h.qual_len);
            reads.push_back(std::move(r));
          }
        }
        assemble.units("bytes", batch.bytes.size(), &core::KernelCosts::per_byte_copy)
            .working_set(batch.bytes.size());
      });
  return reads;
}

}  // namespace dibella::io
