"""Self-tests of the benchmark itself (not of curvecount).

  python3 bench/selftest.py

Run from the root of a checkout; takes about a minute.  Checks that the
pinned values agree with the independent oracle, that BENCHMARK.json
lists exactly the metrics run.py prints, that tracing patches every
alias and restores all of them, that traced counts equal untraced
counts, that every span nests inside its parent (and that a badly
nested table is caught), that
layer counts repeat exactly across two traced runs, that the host clock
reads the reference task at its nominal time and gives SIGALRM back,
that a wrong pinned value makes a run fail, and that a directory
without the program makes the benchmark exit nonzero without a result.
"""

from __future__ import annotations

import array
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402  (puts the checkout's src on sys.path)
import hostclock  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import curvecount.genus0 as genus0  # noqa: E402
import curvecount.genus1 as genus1  # noqa: E402
from curvecount import Engine, Problem, ZProblem, parse_divisor  # noqa: E402


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


_SCRATCH: list[str] = []


def _scratch():
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    _SCRATCH.append(tempfile.mkdtemp(prefix="selftest-", dir=base))
    return _SCRATCH[-1]


class Pins(unittest.TestCase):
    def test_oracle_pins(self):
        checked = 0
        for pin in workloads.all_pins():
            if pin.provenance.startswith("oracle"):
                p = pin.problem
                self.assertEqual(oracle.gw_invariant(p.n, p.d, oracle.incidence_codims(p)), pin.unmarked, pin.label)
                checked += 1
        self.assertGreaterEqual(checked, 5)

    def test_benchmark_json_lists_what_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(layers.PER_LAYER))
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]], ["wall_norm_s", "slowest_count_norm_s", "setup_s", "peak_rss_mb"]
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class Tracing(unittest.TestCase):
    def test_every_alias_is_patched_and_restored(self):
        import curvecount.cli as cli
        import curvecount.partitions as partitions

        before = {
            (ns.__name__, name): value for ns in spans._namespaces() for name, value in vars(ns).items()
        }
        tracer = spans.Tracer()
        tracer.install()
        try:
            for module, name in [
                (genus1, "count_y"),
                (genus1, "tail_problem"),
                (genus0, "finish_terms"),
                (genus1, "finish_terms"),
                (partitions, "type2_partitions"),
                (genus0, "type2_partitions"),
                (genus1, "type2_partitions"),
                (cli, "table_rows"),
                (cli, "build_trace"),
                (cli, "render_text"),
            ]:
                self.assertIsNot(getattr(module, name), before[(module.__name__, name)], f"{module.__name__}.{name}")
            self.assertTrue(spans.patched_names())
        finally:
            tracer.restore()
        self.assertEqual(spans.patched_names(), [])
        after = {(ns.__name__, name): value for ns in spans._namespaces() for name, value in vars(ns).items()}
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_traced_counts_equal_untraced_counts(self):
        problems = [
            Problem.make(0, 3, 3, {(1, 2): 3}, {1: 12}),
            Problem.make(1, 3, 3, {(1, 2): 3}, {1: 12}),
            Problem.make(1, 2, 4, {(1, 1): 4}, {0: 12}),
            ZProblem.make(2, 4, {0: 11}, parse_divisor("p1+p2+p3+p4")),
        ]
        plain = [Engine().count(p) for p in problems]
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = [Engine().count(p) for p in problems]
        finally:
            tracer.restore()
        self.assertEqual(traced, plain)
        self.assertGreater(len(tracer.kind), 0)

    def test_rational_quintic_shape_counts(self):
        pin = workloads.FRONTIER_G0[0]
        tracer = spans.Tracer()
        tracer.install()
        try:
            value = Engine().count(pin.problem)
        finally:
            tracer.restore()
        self.assertEqual(value, pin.marked)
        self.assertEqual(tracer.counters.get("genus0.count_y.nonzero"), 1215)
        self.assertEqual(sum(1 for k in tracer.kind if k == layers.SPANS.index("genus0.count_y")), 67162)

    def test_spans_nest_inside_their_parents(self):
        ops = [op for op in workloads.make_ops("trace", 5, _scratch())]
        tracer = spans.Tracer()
        tracer.install()
        try:
            result = worker.run_pass(ops[:4], tracer)
        finally:
            tracer.restore()
        self.assertEqual(result["failures"], [])
        self.assertGreater(len(tracer.kind), 1000)
        self.assertEqual(layers.check_spans(tracer.parent, tracer.start, tracer.end), [])

    def test_misattributed_spans_are_caught(self):
        # Span 0 runs 0..10 s; its children 1 and 2 are well placed.
        parent = array.array("i", [-1, 0, 0])
        start = array.array("d", [0.0, 1.0, 5.0])
        end = array.array("d", [10.0, 4.0, 9.0])
        self.assertEqual(layers.check_spans(parent, start, end), [])
        # A child that outlasts its parent.
        late = array.array("d", [10.0, 4.0, 11.0])
        self.assertTrue(layers.check_spans(parent, start, late))
        # Children charged to the wrong parent: span 1 claims to be
        # the parent of span 2, which it does not contain.
        self.assertTrue(layers.check_spans(array.array("i", [-1, 0, 1]), start, end))
        # Overlapping children that cover more than their parent lasts.
        overlap = (array.array("d", [0.0, 1.0, 2.0]), array.array("d", [10.0, 8.0, 9.0]))
        self.assertTrue(layers.check_spans(parent, *overlap))

    def test_layer_counts_repeat_across_traced_runs(self):
        record = os.path.join(_scratch(), "records.jsonl")
        for seed in (1, 2):
            res = _bench(["--workload", "frontier-g0", "--seed", str(seed), "--seconds", "1", "--trace", "1",
                          "--record", record], ROOT)
            self.assertEqual(res.returncode, 0, res.stderr)
        with open(record, encoding="utf-8") as fh:
            first, second = (json.loads(line) for line in fh)
        self.assertEqual(first["raw"]["layer_counts"], second["raw"]["layer_counts"])
        self.assertNotEqual(first["raw"]["passes"][0]["labels"], second["raw"]["passes"][0]["labels"])


class HostClock(unittest.TestCase):
    def test_reference_work_reads_its_nominal_time(self):
        # A region made of the reference task itself reads, in
        # host-normalised seconds, about REF_NOMINAL_S per task at any
        # host speed; its raw time is the wall time minus the samples.
        n = 400
        clock = hostclock.Clock(tick_s=0.005)
        t0 = time.perf_counter()
        clock.start()
        for _ in range(n):
            hostclock.reference_task()
        raw, norm = clock.stop()
        wall = time.perf_counter() - t0
        self.assertGreater(len(clock.refs), 20)
        self.assertLess(raw, wall)
        self.assertAlmostEqual(norm / (n * hostclock.REF_NOMINAL_S), 1.0, delta=0.3)
        # The clock gives SIGALRM back as it found it.
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Gate(unittest.TestCase):
    def _copy_checkout(self, with_src=True):
        root = _scratch()
        shutil.copytree(HERE, os.path.join(root, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
        if with_src:
            shutil.copytree(os.path.join(ROOT, "src"), os.path.join(root, "src"),
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        return root

    def test_perturbed_pin_fails_the_run(self):
        root = self._copy_checkout()
        path = os.path.join(root, "bench", "workloads.py")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        self.assertEqual(text.count("        63740,\n"), 1)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("        63740,\n", "        63741,\n"))
        res = _bench(["--workload", "frontier-g0", "--seed", "1", "--seconds", "1", "--trace", "0"], root)
        self.assertEqual(res.returncode, 1, res.stderr)
        result = json.loads(res.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)
        self.assertIn("rational P^4 d=4", res.stderr)

    def test_no_program_no_result(self):
        root = self._copy_checkout(with_src=False)
        res = _bench(["--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"], root)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        for path in _SCRATCH:
            shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass
