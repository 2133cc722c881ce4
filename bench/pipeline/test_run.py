"""Unit tests of the benchmark's parsers and checks, on small fixtures.

  python3 -m unittest discover -s bench/pipeline
"""

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import run

TRACE = """{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"args":{"name":"dibella"}},
{"name":"stage:bloom","ph":"B","pid":0,"tid":0,"ts":0.000},
{"name":"exchange:inflight","ph":"b","pid":0,"tid":0,"ts":100.000,"cat":"exchange","id":"0x1"},
{"name":"exchange:inflight","ph":"e","pid":0,"tid":0,"ts":900.000,"cat":"exchange","id":"0x1"},
{"name":"bloom:insert","ph":"B","pid":0,"tid":0,"ts":200.000},
{"name":"exchange:exposed","ph":"X","pid":0,"tid":0,"ts":400.000,"ts":300.000,"dur":100.000},
{"name":"bloom:insert","ph":"E","pid":0,"tid":0,"ts":500.000},
{"name":"collective:allgather","ph":"X","pid":0,"tid":0,"ts":700.000,"ts":600.000,"dur":100.000},
{"name":"stage:bloom","ph":"E","pid":0,"tid":0,"ts":1000.000},
{"name":"stage:bloom","ph":"B","pid":0,"tid":1,"ts":0.000},
{"name":"stage:bloom","ph":"E","pid":0,"tid":1,"ts":2000.000},
{"name":"stage:ht","ph":"B","pid":0,"tid":1,"ts":2000.000}
]}
"""


class ParserTest(unittest.TestCase):
    def setUp(self):
        run.BUILD.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.BUILD)
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, text):
        path = self.dir / name
        path.write_text(text)
        return path

    def spans(self):
        return run.trace_spans(self.write("trace.json", TRACE))

    def test_x_event_start_is_the_last_ts_key(self):
        spans, _ = self.spans()
        exposed = [s for s in spans[0] if s[2] == "exchange:exposed"]
        self.assertEqual(exposed, [(300.0, 400.0, "exchange:exposed")])

    def test_async_windows_are_not_spans(self):
        spans, _ = self.spans()
        self.assertNotIn("exchange:inflight", {name for _, _, name in spans[0]})

    def test_unclosed_begin_is_counted_not_kept(self):
        spans, unmatched = self.spans()
        self.assertEqual(unmatched, 1)
        self.assertNotIn("stage:ht", {name for _, _, name in spans[1]})

    def test_self_time_subtracts_direct_children_only(self):
        spans, _ = self.spans()
        got = {name: (dur, own) for name, dur, own in run.self_times(spans[0])}
        # stage:bloom 1000 us; direct children bloom:insert (300) and the
        # allgather (100). The exposed wait nests inside bloom:insert.
        self.assertEqual(got["stage:bloom"], (1000.0, 600.0))
        self.assertEqual(got["bloom:insert"], (300.0, 200.0))
        self.assertEqual(got["exchange:exposed"], (100.0, 100.0))

    def test_equal_intervals_nest_and_children_are_clipped(self):
        spans = [(0.0, 10.0, "p"), (2.0, 6.0, "a"), (2.0, 6.0, "b"), (8.0, 12.0, "c")]
        got = {name: own for name, _, own in run.self_times(spans)}
        # a is the parent of b (same interval, sorted first); c is clipped at 10.
        self.assertEqual(got["p"], 4.0)
        self.assertEqual(got["a"], 0.0)

    def test_missing_row_raises(self):
        counters = run.parse_counters(self.write(
            "counters.tsv", "#schema=2\ncounter\tvalue\ndp_cells\t7\n"))
        self.assertEqual(counters["dp_cells"], 7)
        with self.assertRaisesRegex(run.BenchError, "block_loads"):
            counters["block_loads"]
        timings = run.parse_timings(self.write(
            "timings.tsv", "#schema=2\nstage\texchange_bytes\nbloom\t10\n"))
        self.assertEqual(timings["bloom"]["exchange_bytes"], 10.0)
        with self.assertRaises(run.BenchError):
            timings["total"]
        with self.assertRaises(run.BenchError):
            timings["bloom"]["exchange_calls"]
        profile = run.parse_profile(self.write(
            "profile.tsv", "#schema=2\nsection\tkey\tmetric\tvalue\nrun\tall\tranks\t4\n"))
        with self.assertRaises(run.BenchError):
            profile[("run", "all", "dropped_events")]

    def test_layer_metrics_needs_every_stage_span(self):
        for name, text in {
            "counters.tsv": "counter\tvalue\n",
            "timings.tsv": "stage\texchange_bytes\n",
            "profile.tsv": "section\tkey\tmetric\tvalue\n",
            "eval.tsv": "section\tmetric\tvalue\n",
        }.items():
            self.write(name, text)
        with self.assertRaises(run.BenchError):
            run.layer_metrics(self.dir, self.write("trace.json", TRACE))

    def test_paf_is_scored_against_truth_intervals(self):
        truth = self.write("t.tsv", "#genome\t0\t10000\ngid\tgenome\tstart\tend\tstrand\n"
                           "0\t0\t0\t5000\t+\n1\t0\t2000\t7000\t-\n"
                           "2\t0\t4000\t9000\t+\n3\t0\t6500\t9500\t+\n")
        pairs = run.true_pairs(truth, 2000)
        self.assertEqual(pairs, {(0, 1), (1, 2), (2, 3)})
        paf = self.write("a.paf", "r1\t1\t0\t1\t+\tr0\t1\t0\t1\t1\t1\t255\n"
                         "r0\t1\t0\t1\t+\tr3\t1\t0\t1\t1\t1\t255\n")
        recall, precision = run.score_paf(paf, ["r0", "r1", "r2", "r3"], pairs)
        self.assertAlmostEqual(recall, 1 / 3)
        self.assertAlmostEqual(precision, 1 / 2)


def suite_doc(seeds=(1, 2, 3), **changed):
    """A minimal suite file: every workload at every seed, with `changed`
    ({metric: [value per seed]}) overriding the defaults."""
    def run_of(i, seed):
        values = {m: 1.0 for m in run.E2E}
        values.update({m: v[i] for m, v in changed.items()})
        return {"seed": seed, "input": {"sha256": f"in{seed}"},
                "result": {"metrics": {m: {"value": v} for m, v in values.items()}},
                "stats": {m: {"median": 1.0} for m in run.RAW}}
    return {"seeds": list(seeds),
            "runs": {w: [run_of(i, s) for i, s in enumerate(seeds)] for w in run.WORKLOADS}}


class CompareTest(unittest.TestCase):
    def setUp(self):
        run.BUILD.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.BUILD)
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def compare(self, a, b):
        paths = []
        for name, doc in (("a.json", a), ("b.json", b)):
            paths.append(self.dir / name)
            paths[-1].write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run.compare(*paths)
        return status, out.getvalue()

    def test_same_results_pass(self):
        status, out = self.compare(suite_doc(), suite_doc())
        self.assertEqual(status, 0)
        self.assertNotIn("worse", out)

    def test_worse_median_fails(self):
        status, out = self.compare(suite_doc(), suite_doc(norm_wall_s=[1.5, 1.5, 1.5]))
        self.assertEqual(status, 1)
        self.assertRegex(out, r"norm_wall_s .* worse")

    def test_any_quality_change_on_the_same_seeds_fails(self):
        # The median is unchanged; one seed's precision is not.
        status, out = self.compare(suite_doc(), suite_doc(precision=[1.0, 0.999, 1.0]))
        self.assertEqual(status, 1)
        self.assertRegex(out, r"precision .* changed")

    def test_quality_on_other_seeds_is_judged_by_bound(self):
        status, out = self.compare(suite_doc(), suite_doc(seeds=(4, 5, 6),
                                                          precision=[1.0, 0.999, 1.0]))
        self.assertEqual(status, 0)
        self.assertNotIn("changed", out)

    def test_other_inputs_on_the_same_seeds_fail(self):
        b = suite_doc()
        b["runs"]["ecoli30x"][1]["input"]["sha256"] = "other"
        status, out = self.compare(suite_doc(), b)
        self.assertEqual(status, 1)
        self.assertIn("input digests differ", out)

    def test_missing_workload_fails(self):
        b = suite_doc()
        del b["runs"]["hifi-dense"]
        status, out = self.compare(suite_doc(), b)
        self.assertEqual(status, 1)
        self.assertIn("hifi-dense", out)

    def test_verdicts(self):
        self.assertEqual(run.verdict("norm_wall_s", 0.05, 0.02, 0.2), "ok")
        self.assertEqual(run.verdict("norm_wall_s", 0.25, 0.02, 0.2), "worse")
        self.assertEqual(run.verdict("norm_mbp_per_s", 0.25, 0.02, 0.2), "better")
        self.assertEqual(run.verdict("norm_wall_s", 0.25, 0.3, 0.2), "unresolved")


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for section, catalogue in (("end_to_end", run.E2E), ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec[section]},
                             catalogue)


if __name__ == "__main__":
    unittest.main()
