"""End-to-end checks of the command-line interface."""

import hashlib
import importlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import curvecount
from curvecount import Engine, Problem, UnsupportedProblem, ZProblem
from curvecount.cache import MAGIC, MemoStore
from curvecount.cli import main
from curvecount.engine import memo_key
from curvecount.problems import parse_divisor

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
# Quartic plane elliptic curves through 11 points with D = p1+p2+p3+p4: 62.
Z62 = ["-n", "2", "-d", "4", "--points", "11", "--divisor", "p1+p2+p3+p4"]
ENGINE_FLAGS = [["--cache", "CACHE"], ["--no-divisor-axiom"], ["--degeneration-order", "min-e"]]


README = PYPROJECT.parent / "README.md"


def readme_examples():
    """Each ``$ curvecount ...`` line in a fenced block of the README,
    with the lines printed under it up to the next command or fence."""
    examples, fenced = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
            current = None
        elif fenced and line.startswith("$ curvecount "):
            current = (line[len("$ curvecount "):], [])
            examples.append(current)
        elif fenced and current is not None:
            current[1].append(line)
    return examples


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_readme_examples_are_listed():
    assert len(readme_examples()) == 9


@pytest.mark.parametrize("command, printed", readme_examples())
def test_readme_example_prints_what_the_readme_shows(capsys, command, printed):
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0
    assert out == "".join(line + "\n" for line in printed)


def test_count_twisted_cubics(capsys):
    code, out, _ = run(capsys, "count", "-n", "3", "-d", "3", "--incidence", "1:12", "--unmarked")
    assert code == 0
    assert out == "80160\n"


def test_count_marked_by_default(capsys):
    code, out, _ = run(capsys, "count", "-n", "3", "-d", "3", "--incidence", "1:12")
    assert code == 0
    assert out == "480960\n"


def test_tangency_shortfall_becomes_free_contacts(capsys):
    # no --tangency at all: both hyperplane intersections are free
    code, out, _ = run(capsys, "count", "-n", "3", "-d", "2", "--incidence", "1:8")
    assert (code, out) == (0, "184\n")
    code, out, _ = run(capsys, "count", "-n", "3", "-d", "2", "--incidence", "1:8", "--unmarked")
    assert (code, out) == (0, "92\n")


def test_tangency_flag(capsys):
    code, out, _ = run(
        capsys, "count", "-n", "3", "-d", "2", "--tangency", "2,2:1", "--incidence", "1:7"
    )
    assert (code, out) == (0, "116\n")


def test_elliptic_count(capsys):
    code, out, _ = run(capsys, "count", "-g", "1", "-n", "3", "-d", "3", "--lines", "12", "--unmarked")
    assert (code, out) == (0, "1500\n")


def test_elliptic_count_over_p1_is_zero(capsys):
    # a point of P^1 is a hyperplane and costs nothing: no capacity rule
    # applies, and the count is 0 without an error
    code, out, _ = run(capsys, "count", "-g", "1", "-n", "1", "-d", "3", "--points", "2")
    assert (code, out) == (0, "0\n")


def test_zcount_quartic(capsys):
    code, out, _ = run(
        capsys, "zcount", "-n", "2", "-d", "4", "--points", "11", "--divisor", "p1+p2+p3+p4"
    )
    assert (code, out) == (0, "62\n")


def test_zcount_cubic_rows(capsys):
    base = ("zcount", "-n", "2", "-d", "3", "--points", "8", "--lines", "1", "--divisor")
    code, out, _ = run(capsys, *base, "p1+p2+l1")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, *base, "3*l1")
    assert (code, out) == (0, "12\n")


def test_table_pass(capsys):
    code, out, _ = run(capsys, "table", "p3-rational")
    assert code == 0
    assert out.splitlines()[-1] == "3 rows: 3 PASS"


def test_table_discrepancy_is_not_failure(capsys):
    code, out, _ = run(capsys, "table", "ez3")
    assert code == 0
    assert "DISCREPANCY" in out
    assert out.splitlines()[-1] == "20 rows: 19 PASS, 1 DISCREPANCY"


# sha256 of the cold stdout of `curvecount table NAME`, whose exit code
# is 0 for each.  The output carries every row's label, printed and
# computed value, verdict and DISCREPANCY note, and the summary line; a
# change to any of them re-pins the digest on purpose.
TABLE_STDOUT_SHA256 = {
    "ez3": "43b5dd5964e39e8df067e0ef319c4065c56f10ffe62674bd36701ca4c4c73eed",
    "ez4": "27f01a6a0bc561cde00568d34672538fea84aefab3e58816116b59a241393121",
    "eqesc-nums": "bba1e5bdb8279c527aba7edcad5c4f2bf7ba8a55aab98724d58366e7ed6f955f",
    "eqesc-full": "c403fa787213df00d7b03a90b66bccf48ea476be489f1cb961d34d374dae06be",
    "p3-rational": "f541ac9c5dad45e255decb56800ad6445cc7195eb8ecb97855ed75dcf0234677",
    "p3-elliptic-cubics": "0e3a776bf2cad96ad4370a9e57aa21fbfc0759aef9fd698c8efb6a52734dca9b",
}


@pytest.mark.parametrize("name", TABLE_STDOUT_SHA256)
def test_table_output_is_pinned(capsys, name):
    code, out, _ = run(capsys, "table", name)
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (0, TABLE_STDOUT_SHA256[name])


def test_table_failure_exit_code(monkeypatch, capsys):
    from curvecount import tables

    monkeypatch.setitem(
        tables.TABLES, "selftest", lambda eng: [tables.Row("bad", 1, 2, "FAIL")]
    )
    code, out, _ = run(capsys, "table", "selftest")
    assert code == 1
    assert out.splitlines()[-1] == "1 rows: 1 FAIL"


def test_table_runner_marks_a_wrong_printed_value(monkeypatch, capsys):
    from curvecount import tables

    monkeypatch.setattr(tables, "P3_RATIONAL_ROWS", ((1, 4, 2), (2, 8, 93), (3, 12, 80160)))
    code, out, _ = run(capsys, "table", "p3-rational")
    assert code == 1
    lines = out.splitlines()
    assert lines[1].split() == ["d=2", "lines=8", "printed", "93", "computed", "92", "FAIL"]
    assert lines[-1] == "3 rows: 2 PASS, 1 FAIL"


class _ConstantEngine:
    """Stands in for the engine: every problem has 7 unmarked curves."""

    def count(self, problem):
        if isinstance(problem, curvecount.ZProblem):
            return 7
        return 7 * curvecount.unmarked_factor(problem)


def test_every_table_runner_fails_rows_it_cannot_confirm():
    from curvecount import tables

    for name in tables.TABLES:
        rows = tables.table_rows(name, _ConstantEngine())
        assert rows, name
        for row in rows:
            assert row.computed == 7
            assert row.status == ("PASS" if row.printed == 7 else "FAIL"), (name, row)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tangency", "2,x:1"], "bad --tangency '2,x:1'"),
        (["--incidence", "1-3"], "bad --incidence '1-3'"),
    ],
)
def test_malformed_condition_flags_exit_2(capsys, flags, message):
    code, out, err = run(capsys, "count", "-n", "3", "-d", "2", "--lines", "8", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trace", *Z62, "--tangency", "2,0:1"], "--tangency does not apply to a divisor problem"),
        (["trace", *Z62, "-g", "5"], "genus must be 0 or 1, got 5"),
        (["count", "-g", "5", "-n", "2", "-d", "3", "--points", "8"], "genus must be 0 or 1, got 5"),
        (["trace", "-g", "0", "-n", "2", "-d", "3", "--points", "8", "--lines", "1", "--divisor", "p1+p2+l1"],
         "-g 0 does not apply to a divisor problem"),
    ],
)
def test_flags_a_problem_cannot_use_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unknown_table(capsys):
    code, out, err = run(capsys, "table", "nope")
    assert code == 2
    assert out == ""
    assert err == (
        "error: unknown table 'nope'; known tables: eqesc-full, eqesc-nums, ez3, ez4, "
        "p3-elliptic-cubics, p3-rational\n"
    )


def test_internal_key_error_in_a_table_run_is_not_invalid_input(monkeypatch):
    # Only an unknown table name is invalid input (exit 2); a KeyError
    # raised while a known table runs is a fault and propagates.
    from curvecount import genus1

    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(genus1, "count_yc", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["table", "p3-elliptic-cubics"])


def test_unsupported_ambient_space(capsys):
    code, _, err = run(capsys, "count", "-g", "1", "-n", "5", "-d", "3", "--points", "9")
    assert code == 3
    assert "P^5" in err


def test_degeneration_beyond_the_recursion_limit_is_unsupported(capsys):
    # Lines of P^400 through 2 points count 1, but the degeneration
    # recurses once per dimension, past the interpreter's limit.
    code, out, err = run(capsys, "count", "-n", "400", "-d", "1", "--points", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "recursion limit" in err and "Traceback" not in err
    with pytest.raises(UnsupportedProblem, match="recursion limit"):
        Engine().count(Problem.make(0, 400, 1, {(1, 399): 1}, {0: 2}))


def test_a_degeneration_level_leaves_room_for_lines_of_p140():
    # Lines of P^n through 2 points recurse once per dimension; at three
    # frames a level, n = 140 fits the default recursion limit.
    assert Engine().count(Problem.make(0, 140, 1, {(1, 139): 1}, {0: 2})) == 1


def test_divisor_problem_beyond_the_recursion_limit_is_unsupported():
    # Counted under padding frames that leave it too little of the
    # recursion limit, a divisor problem raises UnsupportedProblem like
    # a rational or elliptic one; the limit itself is left as it is.
    z = ZProblem.make(2, 3, {0: 8, 1: 1}, parse_divisor("p1+p2+l1"))
    assert Engine().count(z) == 1

    def pad(k):
        return pad(k - 1) if k else Engine().count(z)

    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    outcomes = set()
    for k in range(sys.getrecursionlimit() - depth - 90, sys.getrecursionlimit() - depth - 20, 5):
        try:
            outcomes.add(pad(k))
        except UnsupportedProblem as err:
            assert "recursion limit" in str(err)
            outcomes.add("unsupported")
    assert "unsupported" in outcomes <= {1, "unsupported"}


def test_invalid_divisor(capsys):
    code, _, err = run(
        capsys, "zcount", "-n", "2", "-d", "3", "--points", "8", "--lines", "1", "--divisor", "p1++l1"
    )
    assert code == 2
    assert err.startswith("error:")


def test_tangency_overflow(capsys):
    code, _, err = run(capsys, "count", "-n", "2", "-d", "2", "--tangency", "3,1:1", "--points", "5")
    assert code == 2
    assert "more than the degree" in err


def test_cache_round_trip(tmp_path, capsys):
    path = tmp_path / "counts.egc"
    argv = ("count", "-n", "3", "-d", "2", "--incidence", "1:8", "--cache", str(path))
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "184\n")
    first = path.read_bytes()
    assert first.startswith((MAGIC + "\n").encode())
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "184\n")
    assert path.read_bytes() == first


def test_trace_on_a_warm_cache_renders_the_same_tree(tmp_path, capsys):
    # The second trace finds every record in the file its first run
    # saved: it must still render the whole tree, and the first run must
    # save what an untraced count of the same problem saves.
    traced, plain = tmp_path / "traced.egc", tmp_path / "plain.egc"
    argv = ("-n", "2", "-d", "3", "--points", "8")
    code, first, _ = run(capsys, "trace", *argv, "--cache", str(traced))
    assert code == 0
    assert first.startswith("72  ") and "[capacity]" not in first
    saved = traced.read_bytes()
    assert run(capsys, "trace", *argv, "--cache", str(traced)) == (0, first, "")
    assert run(capsys, "count", *argv, "--cache", str(plain)) == (0, "72\n", "")
    assert saved == plain.read_bytes() == traced.read_bytes()
    assert saved.count(b"\n") > 10


def test_cache_conflict_on_save_exits_2(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "c.egc"
    real = Engine.count

    def count_while_another_run_saves(self, problem, first_slot=None):
        value = real(self, problem, first_slot)
        other = MemoStore()
        other.store(memo_key(problem), value + 1)
        other.save(cache)
        return value

    monkeypatch.setattr(Engine, "count", count_while_another_run_saves)
    code, out, err = run(capsys, "count", "-n", "2", "-d", "1", "--points", "2", "--cache", str(cache))
    assert code == 2 and out == ""
    assert err.startswith("error: key ") and "refusing to store" in err
    assert cache.read_text(encoding="utf-8") == f"{MAGIC}\nX|g=0 n=2 d=1 h=1,1:1 i=0:2\t2\n"


def test_interrupt_saves_the_cache_and_exits_130(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "c.egc"
    argv = ["count", "-g", "1", "-n", "3", "-d", "3", "--incidence", "1:12", "--cache", str(cache)]
    real = Engine.counted
    calls = []

    def interrupted(self, problem, *args):
        calls.append(problem)
        if len(calls) == 40:
            raise KeyboardInterrupt
        return real(self, problem, *args)

    monkeypatch.setattr(Engine, "counted", interrupted)
    try:
        code, out, err = run(capsys, *argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")
    monkeypatch.undo()
    assert code == 130 and out == ""
    assert err.startswith("error: interrupted") and err.count("\n") == 1
    assert "Traceback" not in err
    saved = MemoStore()
    assert saved.load(cache) > 0
    assert run(capsys, *argv)[:2] == (0, f"{Engine().count(Problem.make(1, 3, 3, {(1, 2): 3}, {1: 12}))}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "-n", "3", "-d", "3", "--lines", "12"],
        ["zcount", *Z62],
        ["table", "p3-rational"],
        ["trace", "-n", "3", "-d", "1", "--lines", "4"],
    ],
)
def test_cache_in_a_missing_directory_exits_2_before_counting(tmp_path, capsys, monkeypatch, argv):
    path = tmp_path / "nodir" / "counts.egc"
    calls = []
    real = Engine.counted

    def spy(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(Engine, "counted", spy)
    code, out, err = run(capsys, *argv, "--cache", str(path))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and ".lock" not in err
    assert "Traceback" not in err
    assert not path.parent.exists()


def test_cache_rejects_corrupt_file(tmp_path, capsys):
    path = tmp_path / "bad.egc"
    path.write_text("garbage\n", encoding="utf-8")
    code, _, err = run(
        capsys, "count", "-n", "3", "-d", "2", "--incidence", "1:8", "--cache", str(path)
    )
    assert code == 2
    assert "header" in err


def test_cache_with_a_negative_count_exits_2(tmp_path, capsys):
    path = tmp_path / "neg.egc"
    path.write_text(f"{MAGIC}\nX|g=0 n=2 d=1 h=1,1:1 i=0:2\t-7\n", encoding="utf-8")
    code, out, err = run(capsys, "count", "-n", "2", "-d", "1", "--points", "2", "--cache", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "negative count -7" in err
    assert "Traceback" not in err


def test_order_and_axiom_flags(capsys):
    for extra in (
        ("--degeneration-order", "min-e"),
        ("--no-divisor-axiom",),
        ("--check-all-orders",),
    ):
        code, out, _ = run(capsys, "count", "-n", "3", "-d", "3", "--incidence", "1:12", *extra)
        assert (code, out) == (0, "480960\n")


@pytest.mark.parametrize(
    "argv, root",
    [
        (["trace", "-n", "3", "-d", "2", "--tangency", "2,2:1", "--lines", "7"], 116),
        *((["zcount", *Z62, *flags], 62) for flags in ENGINE_FLAGS),
        *((["trace", *Z62, *flags], 62) for flags in ENGINE_FLAGS),
        *(([command, "--help"], None) for command in ("count", "zcount", "table", "trace")),
    ],
)
def test_each_subcommand_keeps_its_flags(tmp_path, capsys, argv, root):
    cache = tmp_path / "counts.egc"
    argv = [str(cache) if arg == "CACHE" else arg for arg in argv]
    if root is None:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")
        return
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert int(out.split()[0]) == root
    assert cache.exists() == (str(cache) in argv)


def test_trace_text(capsys):
    code, out, _ = run(capsys, "trace", "-n", "3", "-d", "1", "--incidence", "1:4")
    assert code == 0
    assert out.startswith("2  ")
    # one seed line; the second way to it is a back-reference to a node above it
    assert out.count("[seed]") == 1
    assert out.count("  = #") == 1


def test_trace_json(capsys):
    code, out, _ = run(capsys, "trace", "-n", "3", "-d", "1", "--incidence", "1:4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["version"] == 2
    assert obj["count"] == 2
    assert obj["nodes"][obj["root"]]["rule"]


def test_trace_dot(capsys):
    code, out, _ = run(capsys, "trace", "-n", "3", "-d", "1", "--incidence", "1:4", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph trace {")
    assert out.rstrip().endswith("}")


def test_trace_divisor(capsys):
    code, out, _ = run(
        capsys,
        "trace", "-n", "2", "-d", "3", "--points", "8", "--lines", "1",
        "--divisor", "3*l1",
    )
    assert code == 0
    assert out.startswith("12  ")
    assert "[z-evaluation]" in out
    # a divisor problem is elliptic, so -g 1 says what it already is
    assert run(capsys, "trace", "-g", "1", "-n", "2", "-d", "3", "--points", "8", "--lines", "1", "--divisor", "3*l1") == (
        0, out, ""
    )


def test_installed_script(tmp_path):
    # The suite runs from source, so nothing has installed the console
    # script. Write the launcher an installer generates from the declared
    # entry point and run it by name, as a user would.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "curvecount" in scripts, "pyproject.toml declares no curvecount script"
    module, _, attr = scripts["curvecount"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr, None))

    launcher = tmp_path / "curvecount"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    env["PYTHONPATH"] = str(Path(curvecount.__file__).resolve().parent.parent)
    assert shutil.which("curvecount", path=env["PATH"]) == str(launcher)

    res = subprocess.run(
        ["curvecount", "count", "-n", "1", "-d", "1", "--points", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "1\n"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(curvecount.__file__).resolve().parent.parent)
    res = subprocess.run(
        [sys.executable, "-m", "curvecount", "count", "-n", "1", "-d", "1", "--points", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "1\n"


def test_closed_stdout_pipe_ends_quietly():
    # curvecount trace ... | head -1: the json (about 150 kB) outgrows
    # the pipe's buffer, so the write meets the reader's closed end
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(curvecount.__file__).resolve().parent.parent)
    argv = ["trace", "-n", "3", "-d", "4", "--lines", "16", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "curvecount", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (141, b"")
