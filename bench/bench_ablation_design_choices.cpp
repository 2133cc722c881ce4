/// \file bench_ablation_design_choices.cpp
/// Ablations of diBELLA's design choices:
///   1. owner heuristic — Algorithm 1's odd/even rule vs naive
///      always-owner-of-min-rid assignment (task balance consequences);
///   2. Bloom filter stage on/off — stage-2 memory/traffic impact of
///      skipping the singleton pre-filter;
///   3. seed policy — alignment work vs recall (complementing Fig 11).

#include <cstdio>
#include <map>

#include "comm/world.hpp"
#include "common/bench_common.hpp"
#include "io/read_store.hpp"
#include "overlap/overlapper.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using namespace dibella;

/// Task-count imbalance if every task went to owner(min rid) instead of the
/// odd/even heuristic, simulated over the same pair population.
void ablate_owner_heuristic() {
  using namespace dibella::benchx;
  auto preset = bench_preset_30x();
  auto cfg = config_for(preset, overlap::SeedFilterConfig::one_seed());
  const auto& reads = dataset(preset);
  const int P = 16;
  std::vector<u64> lens;
  for (const auto& r : reads) lens.push_back(r.seq.size());
  io::ReadPartition part(lens, P);

  comm::World world(P);
  auto out = run_pipeline(world, reads, cfg);

  // Reconstruct the per-rank task counts under both policies from the final
  // pair list (pairs are policy-independent).
  std::vector<double> heuristic(P, 0.0), min_rid(P, 0.0);
  for (const auto& rec : out.merged_alignments()) {
    u64 ra = rec.rid_a, rb = rec.rid_b;
    u64 owner_rid = overlap::task_owner_read(ra, rb) == 0 ? ra : rb;
    heuristic[static_cast<std::size_t>(part.owner_of(owner_rid))] += 1.0;
    min_rid[static_cast<std::size_t>(part.owner_of(std::min(ra, rb)))] += 1.0;
  }
  util::Table t({"owner policy", "task imbalance (max/avg)"});
  t.start_row();
  t.cell("odd/even heuristic (Algorithm 1)");
  t.cell(util::load_imbalance(heuristic), 3);
  t.start_row();
  t.cell("always owner of min rid");
  t.cell(util::load_imbalance(min_rid), 3);
  t.print("ablation 1: task-owner assignment at 16 ranks");
  std::printf("min-rid assignment systematically overloads the low-gid ranks;\n"
              "the odd/even rule spreads tasks evenly (§8).\n\n");
}

/// What if stage 1 were skipped? Estimate stage-2 hash-table load with and
/// without the Bloom pre-filter from the stage counters.
void ablate_bloom_filter() {
  using namespace dibella::benchx;
  auto preset = bench_preset_30x();
  auto cfg = config_for(preset, overlap::SeedFilterConfig::one_seed());
  const auto& reads = dataset(preset);
  comm::World world(8);
  auto out = run_pipeline(world, reads, cfg);

  // With the Bloom filter: the table only ever holds candidate keys.
  // Without: every distinct k-mer would get a slot + occurrence list.
  u64 distinct_estimate = out.counters.kmers_parsed;  // ~98% singletons (§6)
  util::Table t({"variant", "hash table keys", "relative memory"});
  t.start_row();
  t.cell("with Bloom pre-filter (diBELLA)");
  t.cell(out.counters.candidate_keys);
  t.cell(1.0, 2);
  t.start_row();
  t.cell("without (upper bound: all distinct)");
  t.cell(distinct_estimate);
  t.cell(static_cast<double>(distinct_estimate) /
             static_cast<double>(std::max<u64>(1, out.counters.candidate_keys)),
         2);
  t.print("ablation 2: Bloom filter stage");
  std::printf("the Bloom stage keeps the distributed table ~%.0fx smaller by\n"
              "never admitting (most) singletons (§6).\n\n",
              static_cast<double>(distinct_estimate) /
                  static_cast<double>(std::max<u64>(1, out.counters.candidate_keys)));
}

void ablate_seed_policy() {
  using namespace dibella::benchx;
  auto preset = bench_preset_30x();
  util::Table t({"seed policy", "extensions", "DP cells", "cells / extension"});
  struct P {
    const char* label;
    overlap::SeedFilterConfig f;
    const char* key;
  };
  auto d1000 = static_cast<u32>(1000.0 * preset.reads.mean_read_len / 9958.0);
  std::vector<P> policies = {
      {"one-seed", overlap::SeedFilterConfig::one_seed(), "e30-oneseed"},
      {"d=1000 (scaled)", overlap::SeedFilterConfig::spaced(d1000), "e30-d1000"},
      {"d=k=17", overlap::SeedFilterConfig::all_seeds(17), "e30-dk"},
  };
  for (const auto& p : policies) {
    auto cfg = config_for(preset, p.f);
    const auto& runs = run_scaling(preset, cfg, p.key);
    const auto& c = runs[0].out.counters;
    t.start_row();
    t.cell(p.label);
    t.cell(c.alignments_computed);
    t.cell(util::format_si(static_cast<double>(c.dp_cells), 2));
    t.cell(static_cast<double>(c.dp_cells) /
               static_cast<double>(std::max<u64>(1, c.alignments_computed)),
           0);
  }
  t.print("ablation 3: seed policy vs alignment work (E.coli 30x)");
}

}  // namespace

int main() {
  dibella::benchx::print_header("Ablations — design choices",
                                "owner heuristic / Bloom stage / seed policy");
  ablate_owner_heuristic();
  ablate_bloom_filter();
  ablate_seed_policy();
  return 0;
}
