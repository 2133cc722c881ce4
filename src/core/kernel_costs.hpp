#pragma once
/// \file kernel_costs.hpp
/// Calibrated per-unit kernel costs for compute-time accounting.
///
/// Why this exists: pipeline compute segments at high simulated rank counts
/// are sub-millisecond, and sandboxed/virtualized kernels often advance the
/// per-thread CPU clock in multi-millisecond ticks, making direct segment
/// timing pure noise. Instead, every stage counts its *work units* exactly
/// (k-mer windows parsed, Bloom insertions, table insertions, DP cells,
/// bytes copied) and converts them to seconds with per-unit costs measured
/// once per process. Compute accounting becomes deterministic while
/// remaining tied to this machine's real kernel speeds; data-dependent
/// behaviour (x-drop early exit, read-length variance) is preserved exactly
/// because the unit *counts* are exact.
///
/// Calibration is fixed-work: each kernel runs a fixed number of units (a
/// few milliseconds' worth) on state rebuilt before every rep — a fresh
/// Bloom filter, a fresh hash table, a traversal table with a fixed number
/// of occurrences per key — so neither the work nor the state it measures
/// depends on elapsed time. Each kernel runs three reps and keeps the
/// fastest, so a preemption on a shared host does not inflate it.
///
/// Each cost is one job that builds its own inputs and state and writes
/// only its own field. The nine jobs run concurrently on a util::ChunkPool
/// of one thread per available CPU (at most nine), longest first; one CPU
/// runs them one after another. The pool starts from a fresh thread, not
/// the caller's, so every job allocates from a thread arena of glibc's
/// malloc, as the rank threads' kernels do: a job on the process's main
/// thread allocated from the main arena and read pair_runs a few percent
/// low. A rep is timed on its own thread's CPU
/// clock (CLOCK_THREAD_CPUTIME_ID), not the wall clock: a shared host can
/// give several threads one CPU's worth of time for minutes at a time, and
/// a wall-timed rep would then read the jobs it waited behind (2-5x too
/// high, measured), while the thread's CPU seconds stay what one thread
/// alone reads. This relies on a fine thread CPU clock (1 ns resolution on
/// the Linux/KVM host measured): one that ticks in milliseconds would swamp
/// the few-millisecond reps as it would the stage segments. Each job first
/// frees one 4 MiB block, so its reps allocate from the kind of heap the
/// pipeline's kernels do, whatever ran before it on its thread
/// (kernel_costs.cpp, warm_heap).
///
/// core::run_pipeline triggers the calibration before `World::run`, so no
/// rank thread runs beside it and no stage span pays for it (profile.tsv
/// reports its wall seconds as `run all calibration_s`).
/// netsim/cost_model.hpp rescales the resulting compute seconds to the
/// paper's platforms.

#include <cstddef>

#include "util/common.hpp"

namespace dibella::core {

/// Seconds per unit of each kernel, measured on this host.
struct KernelCosts {
  double parse_per_kmer = 0.0;      ///< rolling canonical parse + buffer push
  double bloom_insert = 0.0;        ///< Bloom filter test_and_insert
  double table_insert = 0.0;        ///< hash table insert/add_occurrence
  double table_traverse = 0.0;      ///< per-key traversal (overlap stage)
  double pair_consolidate = 0.0;    ///< per-task sort-then-group consolidation
  double pair_runs = 0.0;           ///< per-task pair-run encode, decode, merge, filter
  double xdrop_per_cell = 0.0;      ///< per DP cell of x-drop extension
  double per_byte_copy = 0.0;       ///< bulk byte marshalling
  double graph_probe = 0.0;         ///< per witness lookup of transitive reduction

  /// Calibrate every cost afresh, running the per-cost jobs on `workers`
  /// threads (at most one per job) started from a fresh thread.
  static KernelCosts measure(std::size_t workers);

  /// The process-wide calibrated instance: measure(available_cpus()) on
  /// first use, cached for the rest of the process.
  static const KernelCosts& get();
};

}  // namespace dibella::core
