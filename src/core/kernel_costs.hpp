#pragma once
/// \file kernel_costs.hpp
/// Calibrated per-unit kernel costs for compute-time accounting.
///
/// Why this exists: pipeline compute segments at high simulated rank counts
/// are sub-millisecond, and sandboxed/virtualized kernels often advance the
/// per-thread CPU clock in multi-millisecond ticks, making direct segment
/// timing pure noise. Instead, every stage counts its *work units* exactly
/// (k-mer windows parsed, Bloom insertions, table insertions, DP cells,
/// bytes copied), and a modeled number prices those counts with per-unit
/// costs measured on this host. Compute accounting becomes deterministic
/// while remaining tied to this machine's real kernel speeds; data-dependent
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
/// only its own cost. The nine jobs run concurrently on a util::ChunkPool
/// of one thread per available CPU (at most nine), longest first, started
/// from a fresh thread so every job allocates from a glibc thread arena, as
/// the rank threads' kernels do. A rep is timed on its own thread's CPU
/// clock, not the wall clock, so on a shared host a job does not read the
/// jobs it waited behind (2-5x too high, measured); this needs a fine thread
/// CPU clock (1 ns on the Linux/KVM host measured). kernel_costs.cpp has the
/// details (fastest_rep, warm_heap, measure_kernel_costs).
///
/// Only a caller that prints a modeled number calibrates, once, before its
/// ranks start: the dibella driver times the call and reports it as
/// profile.tsv's `run all calibration_s`. The pipeline itself records
/// work units only (netsim/rank_trace.hpp), and netsim/cost_model.hpp prices
/// them with the costs measured here, rescaled to the paper's platforms.

#include <cstddef>

#include "netsim/rank_trace.hpp"

namespace dibella::core {

/// Calibrate every kernel's per-unit cost afresh on this host, running the
/// per-kernel jobs on `workers` threads (at most one per job) started from
/// a fresh thread.
netsim::KernelCosts measure_kernel_costs(std::size_t workers);

}  // namespace dibella::core
