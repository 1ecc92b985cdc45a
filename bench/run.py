"""curvecount benchmark: one workload, one run, one JSON result line.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

Run from the root of a checkout; the program is imported from its
``src`` directory.  The run executes the workload in a fresh interpreter
(bench/worker.py) with a private scratch directory for cache files,
times set-up in more fresh interpreters (a few before and after the
workload, the rest in the gaps between its operations), checks every
output, and prints a provenance line followed by the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones.  The exit code is 0 when every output
is correct, 1 when some check failed, and 2 when the run could not be
made at all (no result line is printed then).  ``--record FILE``
appends the result, the provenance and the raw per-pass values to a
JSON-lines file that bench/compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import hostclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# Fresh interpreters timed for setup_s, besides the measuring worker:
# EDGE_PROBES before the workload and as many after it, and about
# GAP_PROBES in the gaps between its operations, spread evenly over the
# run (at most MAX_PROBES_PER_GAP in one gap).  The host's speed changes
# from one second to the next, so probes taken together would sample
# it at one moment only.
EDGE_PROBES = 4
GAP_PROBES = 32
MAX_PROBES_PER_GAP = 4
# Each child must finish well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 160
PROBE_TIMEOUT_S = 30


class RunError(RuntimeError):
    """The run could not be made; no result is printed."""


def _spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run a worker, return (monotonic start time, its JSON output)."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"worker {' '.join(args)} did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}: {err.strip()[-2000:]}")
    try:
        return started, json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunError(f"worker {' '.join(args)} printed no result: {err.strip()[-2000:]}") from None


def _run_worker(args: list[str], timeout: float, on_gap, err_path: str) -> tuple[float, dict]:
    """Run the measuring worker with ``--gaps``, calling ``on_gap()``
    while it waits between operations; return (monotonic start time,
    its JSON output)."""
    started = time.monotonic()
    timed_out = threading.Event()
    with open(err_path, "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, WORKER, *args, "--gaps"],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        last = ""
        try:
            for line in proc.stdout:
                if line == "gap\n":
                    on_gap()
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                elif line.strip():
                    last = line
            proc.wait()
        except BrokenPipeError:
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().strip()[-2000:]
    if timed_out.is_set():
        raise RunError(f"worker {' '.join(args)} did not finish within {timeout} s")
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}: {stderr}")
    try:
        return started, json.loads(last)
    except json.JSONDecodeError:
        raise RunError(f"worker {' '.join(args)} printed no result: {stderr}") from None


def _git_sha() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, scratch: str) -> tuple[dict, dict]:
    """Make the run; return (result, raw values)."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup, setup_norm = [], []

    def add_setup(started, ready):
        seconds = ready["ready"] - started - ready["sampling_s"]
        setup.append(seconds)
        setup_norm.append(seconds * hostclock.REF_NOMINAL_S / ready["ref_mean_s"])

    def probe(n):
        for _ in range(n):
            add_setup(*_spawn([*common, "--setup-only"], PROBE_TIMEOUT_S))

    interval = args.seconds / GAP_PROBES
    last_probe = 0.0

    def on_gap():
        nonlocal last_probe
        due = int((time.monotonic() - last_probe) / interval)
        if due:
            probe(min(due, MAX_PROBES_PER_GAP))
            last_probe = time.monotonic()

    probe(EDGE_PROBES)
    last_probe = time.monotonic()
    started, out = _run_worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", scratch],
        WORKER_TIMEOUT_S,
        on_gap,
        os.path.join(scratch, "worker.err"),
    )
    add_setup(started, out)
    probe(EDGE_PROBES)
    passes = out["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)

    if args.trace:
        import layers

        tables = []
        for p in traced:
            meta, kind, parent, start, end = layers.load_table(p["spans"])
            calls, self_s, total_s = layers.self_times(kind, parent, start, end, len(meta["names"]))
            tables.append((layers.layer_counts(meta, calls), layers.layer_times(meta, self_s, total_s)))
            # Every span lies inside its parent and outlasts its children,
            # so no time is charged to the wrong layer.
            for problem in layers.check_spans(parent, start, end):
                failures.append(f"span table of a traced pass: {problem}")
                failed += 1
        if any(t[0] != tables[0][0] for t in tables[1:]):
            failures.append("layer counts differ between traced passes")
            failed += 1
        if len({p["stdout_bytes"] for p in passes}) != 1:
            failures.append("passes printed different amounts of output")
            failed += 1
        metrics = layers.per_layer_metrics(
            tables, [p["wall_s"] for p in plain], [p["wall_s"] for p in traced], passes[0]["stdout_bytes"]
        )
        raw_counts = tables[0][0]
    else:
        metrics = {
            "wall_norm_s": _metric(statistics.median(sum(p["op_norm_s"]) for p in plain), "s"),
            "slowest_count_norm_s": _metric(statistics.median(max(p["op_norm_s"]) for p in plain), "s"),
            "setup_s": _metric(statistics.median(setup_norm), "s"),
            "peak_rss_mb": _metric(out["peak_rss_kb"] / 1024, "MB"),
        }
        raw_counts = None
    # The same times in plain wall seconds, for the record and the log.
    wall = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "slowest_count_s": statistics.median(max(p["op_s"]) for p in plain),
        "setup_s": statistics.median(setup),
    }

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    raw = {
        "setup_s": setup,
        "setup_norm_s": setup_norm,
        "wall": wall,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "peak_rss_kb": out["peak_rss_kb"],
        "layer_counts": raw_counts,
        "failures": failures,
    }
    return result, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one curvecount benchmark workload.")
    parser.add_argument("--workload", required=True, help="frontier-g0, frontier-g1, tables or trace")
    parser.add_argument("--seed", type=int, required=True, help="permutes the order of the operations")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep running passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True, help="1 for per-layer metrics")
    parser.add_argument("--record", metavar="FILE", help="append result, provenance and raw values here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "curvecount", "__init__.py")):
        print(f"error: no curvecount sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    scratch_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        result, raw = measure(args, scratch)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass

    prov = provenance(args)
    for failure in raw["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": prov, "result": result, "raw": raw}) + "\n")
    print("provenance: " + json.dumps(prov))
    print("wall seconds: " + json.dumps(raw["wall"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
