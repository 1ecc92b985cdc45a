"""Run one workload in this fresh process and report raw timings.

Started by run.py, never by hand:

  python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --dir DIR [--gaps]
  python3 bench/worker.py --workload NAME --seed N --setup-only

The worker imports curvecount from the checkout's ``src``, builds the
workload's operations and runs whole passes over them, stopping at the
pass boundary nearest to ``--seconds`` of running time.  With
``--trace 1`` it runs at least two passes, alternates untraced and
traced passes and dumps each traced pass's span table into ``--dir``.
With ``--gaps`` it
prints ``gap`` after each operation and waits for a line on stdin
before it goes on, so that run.py can time set-up in other fresh
interpreters between operations; the wait is outside every timed
region and is not counted as running time.  Its last output is one
JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import hostclock

# Set-up (importing the program, building the inputs) is timed by
# run.py from spawn to "ready"; this clock reads the host's speed
# meanwhile, so that the set-up time can be normalised as well.  Only
# when this file runs as a program: the self-tests import it.
_setup_clock = hostclock.Clock(tick_s=0.01)
if __name__ == "__main__":
    _setup_clock.start()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import curvecount  # noqa: E402

if not os.path.abspath(curvecount.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"curvecount imported from {curvecount.__file__}, not from {SRC}")

import workloads  # noqa: E402


def _invoke(call):
    try:
        return call()
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def run_pass(ops, tracer=None, gap=None) -> dict:
    """Time each operation and check its output outside the timed
    region, then call ``gap()`` if given.  The pass's wall time is the
    sum of the operations' times.  An untraced pass also times each
    operation in host-normalised seconds (see hostclock.py); a traced
    pass does not, so that no reference run is charged to a span."""
    perf = time.perf_counter
    seconds, norm_seconds, refs, failures = [], [], [], []
    stdout_bytes = 0
    for op in ops:
        if tracer is None:
            clock = hostclock.Clock()
            clock.start()
            try:
                out = _invoke(op.call)
            finally:
                raw, norm = clock.stop()
            seconds.append(raw)
            norm_seconds.append(norm)
            refs.append([round(r, 8) for r in clock.refs])
        else:
            call = tracer.wrap(op.call, "op")
            t0 = perf()
            out = _invoke(call)
            seconds.append(perf() - t0)
        if isinstance(out, Exception):
            err = f"{op.label}: {type(out).__name__}: {out}"
        else:
            stdout_bytes += workloads.stdout_bytes(out)
            try:
                err = op.check(out)
            except Exception as exc:
                err = f"{op.label}: check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(err)
        del out
        if gap is not None:
            gap()
    return {
        "traced": tracer is not None,
        "wall_s": sum(seconds),
        "op_s": seconds,
        "op_norm_s": norm_seconds,
        "op_refs": refs,
        "labels": [op.label for op in ops],
        "failures": failures,
        "stdout_bytes": stdout_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", help="scratch directory for cache files and span tables")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--gaps", action="store_true", help="pause after each operation until stdin has a line")
    args = parser.parse_args(argv)

    def ops_for(k):
        pass_dir = os.path.join(args.dir or ".", f"pass-{k}")
        return workloads.make_ops(args.workload, args.seed, pass_dir), pass_dir

    first_ops, first_dir = ops_for(0)
    ready = time.monotonic()
    _setup_clock.stop()
    setup = {
        "ready": ready,
        "sampling_s": _setup_clock.sampling_s - _setup_clock.refs[-1],
        "ref_mean_s": sum(_setup_clock.refs) / len(_setup_clock.refs),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    if args.trace:
        import spans

    paused = 0.0

    def pause():
        nonlocal paused
        t0 = time.perf_counter()
        print("gap", flush=True)
        if not sys.stdin.readline():
            raise SystemExit("run.py closed the gap channel")
        paused += time.perf_counter() - t0

    gap = pause if args.gaps else None

    passes = []
    start = time.perf_counter()
    k = 0
    while True:
        pass_start, pass_paused = time.perf_counter(), paused
        ops, pass_dir = (first_ops, first_dir) if k == 0 else ops_for(k)
        os.makedirs(pass_dir)
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            tracer = spans.Tracer()
            tracer.install()
            try:
                result = run_pass(ops, tracer, gap)
            finally:
                tracer.restore()
            table = os.path.join(args.dir, f"spans-{k}.bin")
            tracer.dump(table, {"wall_s": result["wall_s"]})
            result["spans"] = table
            del tracer
        else:
            result = run_pass(ops, None, gap)
        passes.append(result)
        k += 1
        # Stop at the pass boundary nearest to the budget; a traced run
        # makes at least one untraced and one traced pass.
        now = time.perf_counter()
        last_pass = now - pass_start - (paused - pass_paused)
        if now - start - paused + last_pass / 2 >= args.seconds and k >= 1 + args.trace:
            break

    print(json.dumps({
        **setup,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
