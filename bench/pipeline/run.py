#!/usr/bin/env python3
"""End-to-end pipeline benchmark for the `dibella` driver.

Builds `dibella` and `make_dataset` from this checkout, generates a seeded
synthetic long-read dataset, runs the real driver on it as fresh processes
(closed loop: one driver process at a time), checks every output, and prints
one JSON result line.

  python3 bench/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
      One measurement. --trace 0 prints the end-to-end metrics of untraced
      runs; --trace 1 prints the per-layer metrics of traced runs. --out
      writes every sample, the input provenance and the output digests.
  python3 bench/pipeline/run.py suite --seeds 1-10 --out FILE [--traced]
      Every workload once per seed for BENCHMARK.json's run_seconds, each in
      a fresh harness process, plus the seed-to-seed spread of every
      end-to-end metric and the rank/block pinning check across the ecoli30x
      workloads.
  python3 bench/pipeline/run.py compare A.json B.json
      One row per workload x end-to-end metric of two suite files; exits 1
      if B is worse, or if the same seeds give other inputs or quality.

Standard library only. See README.md beside this file.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"

# Genome scale of the ecoli30x preset: ~280 reads, 2.9 Mbp. Large enough that
# stage 4 dominates ecoli30x, small enough that ecoli30x-r1 fits three samples
# in a 20 s window and one invocation stays near 30 s.
SCALE = 0.02
DATASETS = {
    "clr": ["--preset=30x", f"--scale={SCALE}"],
    "hifi": ["--preset=30x", f"--scale={SCALE}", "--error-rate=0.02"],
}
# Why each workload exists is in README.md.
WORKLOADS = {
    "ecoli30x": ("clr", ["--ranks=4", "--minimizer-w=10"]),
    "hifi-dense": ("hifi", ["--ranks=4", "--minimizer-w=0", "--error-rate=0.02"]),
    # 512K is below the 1.3 MB per-rank read working set, so blocks evict.
    "ecoli30x-blocks": ("clr", ["--ranks=4", "--minimizer-w=10", "--blocks=4",
                                "--memory-budget=512K"]),
    "ecoli30x-r1": ("clr", ["--ranks=1", "--minimizer-w=10"]),
}
# Same reads, same output-determining flags: the repo's contract is that these
# write byte-identical alignments.paf, graph.gfa and eval.tsv.
PINNED = ("ecoli30x", "ecoli30x-blocks", "ecoli30x-r1")
DIGESTED = ("alignments.paf", "graph.gfa", "eval.tsv")

# dibella's default true-overlap threshold for --input runs.
MIN_TRUE_OVERLAP = 2000
RECALL_FLOOR = 0.5
SETUP_READS = 20
SETUP_RUNS = 3
RUN_TIMEOUT_S = 60.0
# No run starts after BUDGET_S, so even one killed at RUN_TIMEOUT_S ends the
# measurement within 180 s.
BUDGET_S = 110.0
SPEED_PROBE_LOOP = 20_000
SPEED_PERIOD_S = 0.1
# speed_probe() on an idle 2.1 GHz Xeon (Sapphire Rapids) KVM guest, CPython 3.11.
QUIET_PROBE_S = 0.00125

# The norm_ timings are the driver's wall and CPU seconds divided by the host
# slowdown measured during the same run (HostSpeed); the raw values are in the
# --out file and on stdout.
E2E = {
    "norm_wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "norm_cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "norm_mbp_per_s": ("Mbp/s", "higher"),
    "recall": ("fraction", "higher"),
    "precision": ("fraction", "higher"),
}

# Stage keys of profile.tsv / timings.tsv / `stage:<key>` spans -> layer name.
LAYERS = {"bloom": "bloom", "ht": "dht", "overlap": "overlap", "align": "align",
          "sgraph": "sgraph"}
SPAN_SUMS = {
    "bloom.insert_s": ("bloom:insert",),
    "dht.insert_s": ("ht:insert",),
    "dht.purge_s": ("ht:purge",),
    "overlap.traverse_s": ("overlap:traverse",),
    "overlap.consolidate_s": ("overlap:consolidate",),
    "align.read_exchange_s": ("align:read_exchange",),
    "align.extend_s": ("align:extend",),
    "sgraph.compute_s": ("sgraph:classify", "sgraph:csr", "sgraph:reduce", "sgraph:walk"),
    "core.spill_write_s": ("spill:write",),
}
# counters.tsv counter -> (metric, divisor)
COUNTS = {
    "sketch_seeds_kept": ("sketch.seeds_kept", 1),
    "candidate_keys": ("bloom.candidate_keys", 1),
    "retained_kmers": ("dht.retained_kmers", 1),
    "overlap_tasks": ("overlap.tasks", 1),
    "read_pairs": ("overlap.read_pairs", 1),
    "reads_exchanged": ("align.reads_fetched", 1),
    "dp_cells": ("align.dp_cells", 1),
    "sg_dovetail_edges": ("sgraph.dovetail_edges", 1),
    "peak_resident_read_bytes": ("io.peak_resident_read_mb", 1e6),
    "block_loads": ("io.block_loads", 1),
    "spill_bytes": ("core.spill_mb", 1e6),
    "comm_chunk_retries": ("comm.retries", 1),
}


def _per_layer():
    m = {}
    for layer in LAYERS.values():
        m[f"{layer}.wall_s"] = ("s", "lower")
        m[f"{layer}.self_s"] = ("s", "lower")
        m[f"{layer}.wait_s"] = ("s", "lower")
        m[f"{layer}.imbalance"] = ("ratio", "lower")
        m[f"{layer}.wire_mb"] = ("MB", "lower")
    for name in SPAN_SUMS:
        m[name] = ("s", "lower")
    for name, div in COUNTS.values():
        m[name] = ("MB" if div == 1e6 else "count", "lower")
    m.update({
        "comm.calls": ("count", "lower"),
        "comm.wire_mb": ("MB", "lower"),
        "align.ns_per_cell": ("ns/cell", "lower"),
        "align.useful_frac": ("fraction", "higher"),
        "core.critical_path_s": ("s", "lower"),
        "core.imbalance_loss_s": ("s", "lower"),
        "eval.unitig_n50_kb": ("kb", "higher"),
        "eval.misjoins": ("count", "lower"),
        "obs.trace_overhead_frac": ("fraction", "lower"),
        "obs.partial_runs": ("count", "lower"),
    })
    return m


PER_LAYER = _per_layer()


class BenchError(Exception):
    """A failed check: a wrong output or a missing row."""


class Rows(dict):
    """A parsed table whose missing keys raise instead of reading as 0."""

    def __init__(self, source, items=()):
        super().__init__(items)
        self.source = source

    def __missing__(self, key):
        raise BenchError(f"{self.source}: no row {key!r}")


# ---------------------------------------------------------------- parsers --

def _tsv_lines(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f
                if line.strip() and not line.startswith("#")]


def parse_counters(path):
    """counters.tsv: `counter<TAB>value` -> {counter: int}."""
    lines = _tsv_lines(path)
    return Rows(path, ((r[0], int(r[1])) for r in lines[1:]))


def parse_timings(path):
    """timings.tsv: one row per stage plus `total` -> {stage: {column: float}}."""
    header, *rows = _tsv_lines(path)
    return Rows(path, ((r[0], Rows(f"{path}:{r[0]}", zip(header[1:], map(float, r[1:]))))
                       for r in rows))


def parse_profile(path):
    """profile.tsv: `section key metric value` -> {(section, key, metric): float}."""
    return Rows(path, (((r[0], r[1], r[2]), float(r[3])) for r in _tsv_lines(path)[1:]))


def parse_eval(path):
    """eval.tsv: `section metric value` -> {(section, metric): float}."""
    return Rows(path, (((r[0], r[1]), float(r[2])) for r in _tsv_lines(path)[1:]))


def trace_spans(path):
    """Closed spans of a Chrome trace written by `dibella --trace`.

    Returns ({rank: [(start_us, end_us, name)]}, unmatched). B/E pairs nest
    per rank; X events carry their own duration; async b/e windows and other
    phases are not spans. X events repeat the `ts` key (end, then start) and
    json keeps the last one, which is the start.
    """
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans, stacks, unmatched = defaultdict(list), defaultdict(list), 0
    for ev in events:
        ph, rank = ev.get("ph"), ev.get("tid")
        if ph == "B":
            stacks[rank].append((float(ev["ts"]), ev["name"]))
        elif ph == "E":
            if stacks[rank]:
                start, name = stacks[rank].pop()
                spans[rank].append((start, float(ev["ts"]), name))
            else:
                unmatched += 1
        elif ph == "X":
            start = float(ev["ts"])
            spans[rank].append((start, start + float(ev["dur"]), ev["name"]))
    unmatched += sum(len(s) for s in stacks.values())
    return dict(spans), unmatched


def self_times(spans):
    """[(name, dur_us, self_us)] for one rank's spans: self time is the span's
    duration minus the part of it that its direct children cover."""
    order = sorted(spans, key=lambda s: (s[0], -s[1]))
    children = [[] for _ in order]
    stack = []
    for i, (start, _, _) in enumerate(order):
        while stack and order[stack[-1]][1] <= start:
            stack.pop()
        if stack:
            children[stack[-1]].append(i)
        stack.append(i)
    out = []
    for i, (start, end, name) in enumerate(order):
        covered, reach = 0.0, start
        for c in children[i]:  # sorted by start
            lo, hi = max(order[c][0], reach), min(order[c][1], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((name, end - start, end - start - covered))
    return out


def layer_metrics(out_dir, trace_path):
    """Per-layer metrics of one traced run (everything but the overhead)."""
    counters = parse_counters(out_dir / "counters.tsv")
    timings = parse_timings(out_dir / "timings.tsv")
    profile = parse_profile(out_dir / "profile.tsv")
    ev = parse_eval(out_dir / "eval.tsv")
    spans, unmatched = trace_spans(trace_path)
    per_rank = {rank: self_times(s) for rank, s in spans.items()}

    m = {}
    for key, layer in LAYERS.items():
        m[f"{layer}.wall_s"] = profile[("stage", key, "wall_max_s")]
        m[f"{layer}.wait_s"] = profile[("stage", key, "exchange_exposed_wall_s")]
        m[f"{layer}.imbalance"] = profile[("stage", key, "imbalance")]
        m[f"{layer}.wire_mb"] = timings[key]["exchange_bytes"] / 1e6
        stage = f"stage:{key}"
        if not any(n == stage for rows in per_rank.values() for n, _, _ in rows):
            raise BenchError(f"{trace_path}: no {stage} span")
        m[f"{layer}.self_s"] = max(sum(s for n, _, s in rows if n == stage)
                                   for rows in per_rank.values()) / 1e6
    for metric, names in SPAN_SUMS.items():
        m[metric] = sum(d for rows in per_rank.values() for n, d, _ in rows if n in names) / 1e6
    for counter, (metric, div) in COUNTS.items():
        m[metric] = counters[counter] / div
    m["comm.calls"] = timings["total"]["exchange_calls"]
    m["comm.wire_mb"] = timings["total"]["exchange_bytes"] / 1e6
    cells = counters["dp_cells"]
    m["align.ns_per_cell"] = m["align.extend_s"] * 1e9 / cells if cells else 0.0
    aligned = counters["pairs_aligned"]
    m["align.useful_frac"] = ev[("overlap", "true_positives")] / aligned if aligned else 0.0
    m["core.critical_path_s"] = profile[("run", "all", "critical_path_s")]
    m["core.imbalance_loss_s"] = profile[("run", "all", "imbalance_loss_s")]
    m["eval.unitig_n50_kb"] = ev[("unitig", "unitig_n50")] / 1e3
    m["eval.misjoins"] = ev[("unitig", "misjoined_unitigs")]
    partial = (unmatched + profile[("run", "all", "dropped_events")]
               + profile[("run", "all", "unclosed_spans")]) > 0
    m["obs.partial_runs"] = 1 if partial else 0
    return m


# ------------------------------------------------------------ correctness --

def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fastq_reads(path):
    """[(name, length)] of a FASTQ file, in file order (= read gid order)."""
    reads = []
    with open(path) as f:
        for i, line in enumerate(f):
            if i % 4 == 0:
                reads.append([line[1:].split()[0], 0])
            elif i % 4 == 1:
                reads[-1][1] = len(line.rstrip("\n"))
    return [tuple(r) for r in reads]


def true_pairs(truth_path, min_overlap):
    """Read-gid pairs whose genome intervals share >= min_overlap bases."""
    by_genome = defaultdict(list)
    for r in _tsv_lines(truth_path):
        if r[0] != "gid":
            by_genome[r[1]].append((int(r[2]), int(r[3]), int(r[0])))
    pairs = set()
    for reads in by_genome.values():
        reads.sort()
        for i, (lo_a, hi_a, a) in enumerate(reads):
            for lo_b, hi_b, b in reads[i + 1:]:
                if lo_b + min_overlap > hi_a:
                    break
                if min(hi_a, hi_b) - lo_b >= min_overlap:
                    pairs.add((min(a, b), max(a, b)))
    return pairs


def score_paf(paf_path, names, truth):
    """(recall, precision) of the read pairs in a PAF against the truth pairs."""
    gid = {name: i for i, name in enumerate(names)}
    reported = set()
    with open(paf_path) as f:
        for line in f:
            cols = line.split("\t")
            a, b = gid[cols[0]], gid[cols[5]]
            if a != b:
                reported.add((min(a, b), max(a, b)))
    hits = len(reported & truth)
    return hits / len(truth), (hits / len(reported) if reported else 0.0)


def check_quality(out_dir, names, truth_path):
    """Recall and precision of the run's PAF, scored here against the truth
    intervals. They must match what the driver wrote to eval.tsv."""
    recall, precision = score_paf(out_dir / "alignments.paf", names,
                                  true_pairs(truth_path, MIN_TRUE_OVERLAP))
    ev = parse_eval(out_dir / "eval.tsv")
    for key, value in (("recall", recall), ("precision", precision)):
        if abs(ev[("overlap", key)] - value) > 1e-6:
            raise BenchError(f"eval.tsv {key} is {ev[('overlap', key)]} but the PAF "
                             f"scores {value:.6f} against the truth")
    if recall < RECALL_FLOOR:
        raise BenchError(f"recall {recall:.3f} is below {RECALL_FLOOR}")
    return {"recall": recall, "precision": precision}


def check_outputs(out_dir):
    """Per-run checks; returns the digests every run must reproduce."""
    counters = parse_counters(out_dir / "counters.tsv")
    with open(out_dir / "alignments.paf", "rb") as f:
        lines = sum(1 for _ in f)
    if lines != counters["alignments_reported"]:
        raise BenchError(f"{out_dir}: alignments.paf has {lines} lines, "
                         f"alignments_reported is {counters['alignments_reported']}")
    return {name: sha256(out_dir / name) for name in DIGESTED + ("counters.tsv",)}


# ----------------------------------------------------------------- runner --

def build():
    """Configure once, then bring `dibella` and `make_dataset` up to date."""
    if not (ROOT / "CMakeLists.txt").is_file():
        raise SystemExit(f"error: no CMakeLists.txt in {ROOT}; the benchmark needs the source tree")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
                      "-DDIBELLA_BUILD_TESTS=OFF", "-DDIBELLA_BUILD_BENCHES=OFF",
                      "-DDIBELLA_WERROR=OFF"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "dibella", "make_dataset",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                raise SystemExit(f"error: build failed: {' '.join(cmd)}")


def speed_probe():
    """CPU seconds this thread takes for a fixed pure-Python loop (~1.3 ms)."""
    start, s = time.thread_time(), 0
    for i in range(SPEED_PROBE_LOOP):
        s += i * i % 7
    return time.thread_time() - start


class HostSpeed(threading.Thread):
    """Samples the host's speed while a driver process runs.

    On a shared host, co-tenants slow every CPU by up to 40% for seconds to
    minutes at a time, and one driver run reads up to 50% slower than the run
    before it. Every SPEED_PERIOD_S this thread times speed_probe() on the next
    allowed CPU, in thread CPU time so that waiting for a CPU is not counted.
    The mean over a run, divided by QUIET_PROBE_S, is that run's slowdown.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(SPEED_PERIOD_S):
            # Affinity here is this thread's own; the driver keeps the parent's.
            os.sched_setaffinity(0, {self.cpus[len(self.samples) % len(self.cpus)]})
            self.samples.append(speed_probe())

    def slowdown(self):
        self.done.set()
        self.join()
        return statistics.mean(self.samples or [speed_probe()]) / QUIET_PROBE_S


class Runner:
    """Launches driver processes one at a time and times each from outside."""

    def __init__(self, work):
        self.work = work
        self.env = dict(os.environ, TMPDIR=str(work))
        self.launched = 0
        self.failed = 0

    def run(self, args, out_dir):
        """One fresh driver process: wall from spawn to reap, rusage of that
        child alone, and the host slowdown meanwhile. Returns the sample, or
        None if the process failed or hung."""
        shutil.rmtree(out_dir, ignore_errors=True)
        cmd = [str(BUILD / "dibella"), *args, f"--out-dir={out_dir}"]
        self.launched += 1
        reaped = {}

        def reap(pid):
            reaped["status"] = os.wait4(pid, 0)
            reaped["end"] = time.perf_counter()

        speed = HostSpeed()
        with open(self.work / "driver.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=self.work,
                                    env=self.env)
            speed.start()
            waiter = threading.Thread(target=reap, args=(proc.pid,))
            waiter.start()
            waiter.join(RUN_TIMEOUT_S)
            timed_out = waiter.is_alive()
            if timed_out:
                proc.kill()
                waiter.join()
            slowdown = speed.slowdown()
        if timed_out:
            self.failed += 1
            print(f"run timed out after {RUN_TIMEOUT_S:.0f} s: {' '.join(cmd)}", file=sys.stderr)
            return None
        _, status, usage = reaped["status"]
        if os.waitstatus_to_exitcode(status) != 0:
            self.failed += 1
            print(f"run exited {os.waitstatus_to_exitcode(status)}: {' '.join(cmd)}\n"
                  + (self.work / "driver.log").read_text()[-2000:], file=sys.stderr)
            return None
        wall, cpu = reaped["end"] - start, usage.ru_utime + usage.ru_stime
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "slowdown": slowdown, "norm_wall_s": wall / slowdown,
                "norm_cpu_s": cpu / slowdown}


def make_inputs(work, workload, seed):
    """Generate the workload's dataset and its set-up prefix; record provenance."""
    dataset = DATASETS[WORKLOADS[workload][0]]
    args = [*dataset, f"--seed={seed}", f"--out={work / 'reads'}"]
    subprocess.run([str(BUILD / "make_dataset"), *args], check=True, cwd=work,
                   stdout=subprocess.DEVNULL)
    fq, truth = work / "reads.fq", work / "reads.truth.tsv"
    with open(fq) as src, open(work / "setup.fq", "w") as dst:
        for i, line in enumerate(src):
            if i == 4 * SETUP_READS:
                break
            dst.write(line)
    reads = fastq_reads(fq)
    provenance = {"make_dataset_args": dataset + [f"--seed={seed}"], "seed": seed,
                  "reads": len(reads), "bases": sum(n for _, n in reads),
                  "sha256": sha256(fq), "truth_sha256": sha256(truth)}
    return fq, truth, [n for n, _ in reads], provenance


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(samples):
    """{metric: {median, q1, q3, n}} over a list of per-run dicts."""
    out = {}
    for key in samples[0]:
        q1, med, q3 = quartiles([s[key] for s in samples])
        out[key] = {"median": med, "q1": q1, "q3": q3, "n": len(samples)}
    return out


def measure(workload, seed, seconds, traced):
    """One benchmark invocation. Returns (result line, detail record)."""
    build()
    start = time.perf_counter()
    work = WORK / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = start + BUDGET_S
    runner = Runner(work)
    try:
        fq, truth, names, provenance = make_inputs(work, workload, seed)
        flags = list(WORKLOADS[workload][1])
        if any(f.startswith("--blocks=") for f in flags):
            flags.append(f"--spill-dir={work}")
        full = [f"--input={fq}", f"--truth={truth}", *flags]
        # setup_s: the fixed per-invocation cost (process start, kernel-cost
        # calibration, World start, output files) on a 20-read prefix.
        setup_args = [f"--input={work / 'setup.fq'}", *flags, "--eval=off"]
        errors = []

        # After a failed or hung run no other run starts, so a hang costs one
        # RUN_TIMEOUT_S at most.
        setup = []
        while len(setup) < SETUP_RUNS and not runner.failed:
            setup.append(runner.run(setup_args, work / "setup"))
        # The first full run of a process tree is 10-40% slower; discard it.
        warmup = None if runner.failed else runner.run(full, work / "warmup")

        untraced, traced_runs, digests, layer = [], [], {}, []
        window = time.perf_counter()
        while not runner.failed:
            trace_this = traced and len(untraced) > len(traced_runs)
            out_dir = work / f"run{runner.launched}"
            args = full + ([f"--trace={out_dir / 'trace.json'}", "--profile-report"]
                           if trace_this else [])
            sample = runner.run(args, out_dir)
            if sample is None:
                break
            try:
                d = check_outputs(out_dir)
                if not digests:
                    digests = d
                    quality = check_quality(out_dir, names, truth)
                elif d != digests:
                    raise BenchError(f"{out_dir}: outputs differ from the first run "
                                     f"({', '.join(k for k in d if d[k] != digests[k])})")
                if trace_this:
                    layer.append(layer_metrics(out_dir, out_dir / "trace.json"))
                    traced_runs.append(sample)
                else:
                    untraced.append(sample)
            except (BenchError, OSError, ValueError, KeyError) as e:
                errors.append(str(e))
                runner.failed += 1
                break
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            now = time.perf_counter()
            enough = now - window >= seconds and (not traced or traced_runs)
            if enough or now + 1.5 * sample["wall_s"] > deadline:
                break

        ok = (not errors and runner.failed == 0 and untraced
              and (layer or not traced))
        metrics = {}
        if ok and not traced:
            stats = summarize(untraced)
            setup_stats = summarize(setup)["wall_s"]
            values = {k: v["median"] for k, v in stats.items()}
            values["setup_s"] = setup_stats["median"]
            values["norm_mbp_per_s"] = provenance["bases"] / 1e6 / values["norm_wall_s"]
            values.update(quality)
            metrics = {k: {"value": values[k], "unit": E2E[k][0]} for k in E2E}
            stats["setup_s"] = setup_stats
        elif ok:
            stats = {k: {"median": statistics.median(r[k] for r in layer), "n": len(layer)}
                     for k in layer[0]}
            wall_traced = statistics.median(s["norm_wall_s"] for s in traced_runs)
            wall_plain = statistics.median(s["norm_wall_s"] for s in untraced)
            values = {k: v["median"] for k, v in stats.items()}
            values["obs.trace_overhead_frac"] = wall_traced / wall_plain - 1
            values["obs.partial_runs"] = sum(r["obs.partial_runs"] for r in layer)
            metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
        else:
            stats = {}
        result = {"correct": bool(ok), "attempted": runner.launched, "failed": runner.failed,
                  "metrics": metrics}
        detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
                  "driver_flags": WORKLOADS[workload][1], "input": provenance, "digests": digests,
                  "errors": errors, "samples": {"setup": setup, "warmup": warmup,
                                                "untraced": untraced, "traced": traced_runs},
                  "stats": stats, "result": result}
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_metrics(result, detail):
    stats = detail["stats"]
    for name, m in result["metrics"].items():
        s = stats.get(name, {})
        spread = (f"  [q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, n={s['n']}]"
                  if "q1" in s else f"  [n={s['n']}]" if "n" in s else "")
        print(f"{detail['workload']:16} {name:26} {m['value']:14.6g} {m['unit']}{spread}")
    if "slowdown" in stats:
        print(f"{detail['workload']:16} raw medians: wall {stats['wall_s']['median']:.4g} s, "
              f"cpu {stats['cpu_s']['median']:.4g} s, slowdown {stats['slowdown']['median']:.4g}")
    for e in detail["errors"]:
        print(f"error: {e}")


# ------------------------------------------------------- suite / compare --

# Deterministic for one input: two suites over the same seeds must agree exactly.
EXACT = ("recall", "precision")
# Raw per-invocation medians that compare prints beside the normalised ones, so
# a change that moves the slowdown its own runs see shows up.
RAW = ("wall_s", "slowdown")


def spec():
    """BENCHMARK.json: ({end-to-end metric: bound}, run_seconds)."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}, doc["run_seconds"]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def seed_values(runs, metric):
    """One value per invocation: an end-to-end metric, or a RAW median."""
    if metric in E2E:
        return [r["result"]["metrics"][metric]["value"] for r in runs]
    return [r["stats"][metric]["median"] for r in runs]


def seed_stats(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def suite(args):
    seeds = parse_seeds(args.seeds)
    names = list(WORKLOADS)
    limits, seconds = spec()
    runs, traced = defaultdict(list), {}
    tmp = WORK / f"suite-{os.getpid()}.json"
    WORK.mkdir(parents=True, exist_ok=True)

    def invoke(workload, seed, trace):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(tmp)]
        tmp.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode or not tmp.is_file():
            raise SystemExit(f"error: {workload} seed {seed} failed: {last}")
        detail = json.loads(tmp.read_text())
        detail["harness_s"] = time.perf_counter() - t0
        if json.loads(last) != detail["result"] or not detail["result"]["correct"]:
            raise SystemExit(f"error: {workload} seed {seed} failed: {last}")
        print(f"{workload:16} seed {seed:<8} trace {trace} {detail['harness_s']:6.1f} s  {last}",
              flush=True)
        return detail

    for i, seed in enumerate(seeds):
        for workload in names[i % len(names):] + names[:i % len(names)]:
            runs[workload].append(invoke(workload, seed, 0))
    if args.traced:
        for workload in names:
            traced[workload] = invoke(workload, seeds[0], 1)
    tmp.unlink(missing_ok=True)

    pinning = {}
    for seed_index, seed in enumerate(seeds):
        group = [runs[w][seed_index]["digests"] for w in PINNED]
        pinning[str(seed)] = len({json.dumps({k: d[k] for k in DIGESTED}, sort_keys=True)
                                  for d in group}) == 1
    spread = {w: {m: seed_stats(seed_values(runs[w], m)) for m in E2E} for w in names}
    doc = {"seeds": seeds, "seconds": seconds, "scale": SCALE,
           "runs": runs, "traced": traced, "pinning": pinning, "spread": spread}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")

    print(f"\n{'workload':16} {'metric':12} {'median':>10} {'iqr/med':>8} {'bound':>6}")
    worst = 0.0
    for w in names:
        for m in E2E:
            s = spread[w][m]
            flag = "" if s["spread"] <= limits[m] / 3 else "  > bound/3"
            if m != "setup_s":
                worst = max(worst, s["spread"] / limits[m])
            print(f"{w:16} {m:12} {s['median']:10.4g} {s['spread']:8.2%} {limits[m]:6.1%}{flag}")
    total = sum(r["harness_s"] for rs in runs.values() for r in rs)
    print(f"pinning across {', '.join(PINNED)}: "
          f"{'ok' if all(pinning.values()) else 'FAILED'}")
    print(f"worst spread/bound {worst:.2f}; harness time {total:.0f} s for "
          f"{sum(len(r) for r in runs.values())} invocations")
    return 0 if all(pinning.values()) else 1


def verdict(metric, delta, spread, bound):
    """ok / worse / better by more than the bound, or unresolved when the
    wider seed-to-seed spread of the two sides exceeds the bound."""
    worse = delta if E2E[metric][1] == "lower" else -delta
    if spread > bound:
        return "unresolved"
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "ok"


def compare(path_a, path_b):
    """Rows of B against A; 1 if any row is worse or an exact metric changed,
    if the same seeds gave other inputs, or if a file lacks a workload."""
    a, b = json.loads(Path(path_a).read_text()), json.loads(Path(path_b).read_text())
    limits, _ = spec()
    status = 0
    for label, doc in (("A", a), ("B", b)):
        for w in WORKLOADS:
            if len(doc["runs"].get(w, ())) != len(doc["seeds"]):
                print(f"error: {label} has no run of {w} for every seed")
                status = 1
    if status:
        return status
    same_seeds = a["seeds"] == b["seeds"]
    print(f"A = {path_a} (seeds {a['seeds'][0]}..{a['seeds'][-1]})\n"
          f"B = {path_b} (seeds {b['seeds'][0]}..{b['seeds'][-1]})")
    if not same_seeds:
        print("different seeds: inputs differ, exact metrics are not compared seed by seed")
    print(f"{'workload':16} {'metric':12} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for w in WORKLOADS:
        runs_a, runs_b = a["runs"][w], b["runs"][w]
        if same_seeds:
            for ra, rb in zip(runs_a, runs_b):
                if ra["input"]["sha256"] != rb["input"]["sha256"]:
                    print(f"error: {w} seed {ra['seed']}: input digests differ")
                    status = 1
        for m in (*E2E, *RAW):
            va, vb = seed_values(runs_a, m), seed_values(runs_b, m)
            sa, sb = seed_stats(va), seed_stats(vb)
            delta = (sb["median"] - sa["median"]) / sa["median"]
            if m in RAW:
                bound, v = "-", "raw, no bound"
            else:
                bound = f"{limits[m]:.1%}"
                # Same seeds, same inputs: any quality difference is a change.
                v = "changed" if same_seeds and m in EXACT and va != vb \
                    else verdict(m, delta, max(sa["spread"], sb["spread"]), limits[m])
                if v in ("worse", "changed"):
                    status = 1
            fa = f"{sa['median']:.4g} [{sa['q1']:.4g}, {sa['q3']:.4g}]"
            fb = f"{sb['median']:.4g} [{sb['q1']:.4g}, {sb['q3']:.4g}]"
            print(f"{w:16} {m:12} {fa:>30} {fb:>30} {delta:+8.2%} {bound:>6}  {v}")
    return status


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    if argv and argv[0] == "suite":
        p = argparse.ArgumentParser(prog="run.py suite")
        p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
        p.add_argument("--traced", action="store_true",
                       help="also one --trace 1 run per workload at the first seed")
        p.add_argument("--out", required=True)
        return suite(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0x5EED30)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write samples, provenance and digests to this JSON file")
    args = p.parse_args(argv)
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: detail["input"][k] for k in ("seed", "reads", "bases", "sha256")}))
    print_metrics(result, detail)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
