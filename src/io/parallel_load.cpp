#include "io/parallel_load.hpp"

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

  // --- dense global ids: my block starts after all lower ranks' reads.
  u64 my_first_gid = comm.exscan_sum(mine.size());
  for (std::size_t i = 0; i < mine.size(); ++i) mine[i].gid = my_first_gid + i;

  // --- serialize and allgather; every rank reassembles the global list.
  std::vector<RecordHeaderWire> headers;
  std::vector<char> chars;
  u64 payload_bytes = 0;
  for (const auto& r : mine) {
    headers.push_back(RecordHeaderWire{static_cast<u32>(r.name.size()),
                                       static_cast<u32>(r.seq.size()),
                                       static_cast<u32>(r.qual.size())});
    chars.insert(chars.end(), r.name.begin(), r.name.end());
    chars.insert(chars.end(), r.seq.begin(), r.seq.end());
    chars.insert(chars.end(), r.qual.begin(), r.qual.end());
    payload_bytes += r.name.size() + r.seq.size() + r.qual.size();
  }
  // Parsing and serializing cost four byte copies per payload byte.
  parse.units("byte_copies", 4 * payload_bytes, &core::KernelCosts::per_byte_copy)
      .working_set(payload_bytes)
      .close();

  auto all_headers = comm.allgatherv(headers);
  auto all_chars = comm.allgatherv(chars);

  auto assemble = ctx.kernel("io:assemble");
  std::vector<Read> reads;
  reads.reserve(all_headers.size());
  std::size_t offset = 0;
  for (const auto& h : all_headers) {
    Read r;
    r.gid = reads.size();
    std::size_t need = static_cast<std::size_t>(h.name_len) + h.seq_len + h.qual_len;
    DIBELLA_CHECK(offset + need <= all_chars.size(),
                  "parallel load: payload shorter than headers describe");
    r.name.assign(all_chars.begin() + static_cast<std::ptrdiff_t>(offset),
                  all_chars.begin() + static_cast<std::ptrdiff_t>(offset + h.name_len));
    offset += h.name_len;
    r.seq.assign(all_chars.begin() + static_cast<std::ptrdiff_t>(offset),
                 all_chars.begin() + static_cast<std::ptrdiff_t>(offset + h.seq_len));
    offset += h.seq_len;
    r.qual.assign(all_chars.begin() + static_cast<std::ptrdiff_t>(offset),
                  all_chars.begin() + static_cast<std::ptrdiff_t>(offset + h.qual_len));
    offset += h.qual_len;
    reads.push_back(std::move(r));
  }
  DIBELLA_CHECK(offset == all_chars.size(),
                "parallel load: payload longer than headers describe");
  assemble.units("bytes", all_chars.size(), &core::KernelCosts::per_byte_copy)
      .working_set(all_chars.size());
  return reads;
}

}  // namespace dibella::io
