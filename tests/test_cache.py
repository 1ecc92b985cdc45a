"""Persistent memo store: file format, merging, determinism."""

import hashlib
import os
import threading

import pytest

from curvecount import Engine, Problem
from curvecount.cache import MAGIC, CacheConflict, InvalidCacheFile, MemoStore
from curvecount.cli import main

# sha256 of the cache file that a cold `curvecount table
# p3-elliptic-cubics --cache F` writes: 221 records across the X, W,
# QQ, HQ, HH, HMQ and SS families.  It pins every subproblem the
# table stores and its value; a change that stores different
# subproblems re-pins it on purpose.  (The file had 1,144 records
# before elliptic components below degree 3 and hyperplane components
# over their point capacity were cut, and 315 before problems that
# engine.beyond_capacity flags were no longer stored; the 69 records
# dropped then were all 0, and each of the 246 kept records has the
# value it had there.  The 2 records added when P^2 and P^3 type IIb
# came to share one evaluator are P^1 lines through points, count 1.
# The 18 Z records of its type IIc divisor-class problems went when
# fibration.expand_z came to evaluate those from their bases' pairings;
# every other record is the same.  The 9 records that went when
# engine.beyond_capacity came to flag problems with a free marker were
# all 0, and every other record kept its value and its place.)
ELLIPTIC_CUBICS_CACHE_SHA256 = "00e2bc9ee3d622ce479867caf94ffee5cd26c31a43ce864b708486cd459df715"


def test_round_trip(tmp_path):
    store = MemoStore()
    store.store("X|g=0 n=2 d=1 h=1,1:1 i=0:2", 1)
    store.store("SS|n=2 d=3 i=0:8;1:1", -3)
    path = tmp_path / "counts.egc"
    store.save(path)
    fresh = MemoStore()
    assert fresh.load(path) == 2
    assert dict(fresh.items()) == dict(store.items())


def test_header_line(tmp_path):
    store = MemoStore()
    store.store("k", 5)
    path = tmp_path / "c.egc"
    store.save(path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith(MAGIC + "\n")
    assert text.endswith("\n")


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "not-a-cache"
    path.write_text("hello\nk\t1\n", encoding="utf-8")
    with pytest.raises(InvalidCacheFile):
        MemoStore().load(path)


def test_rejects_malformed_records(tmp_path):
    path = tmp_path / "c.egc"
    path.write_text(f"{MAGIC}\nkey without tab\n", encoding="utf-8")
    with pytest.raises(InvalidCacheFile):
        MemoStore().load(path)
    path.write_text(f"{MAGIC}\nkey\tnot-an-int\n", encoding="utf-8")
    with pytest.raises(InvalidCacheFile):
        MemoStore().load(path)


def test_rejects_integers_save_does_not_write(tmp_path):
    path = tmp_path / "c.egc"
    for value in ("1_0", " 12", "12 ", "+3", "007", "-0", "", "１２"):
        path.write_text(f"{MAGIC}\nkey\t{value}\n", encoding="utf-8")
        with pytest.raises(InvalidCacheFile, match="bad integer"):
            MemoStore().load(path)
    path.write_text(f"{MAGIC}\na\t0\nb\t-120\n", encoding="utf-8")
    store = MemoStore()
    assert store.load(path) == 2
    assert dict(store.items()) == {"a": 0, "b": -120}


@pytest.mark.parametrize(
    "key",
    ["X|g=0 n=2 d=1 h=1,1:1 i=0:2", "W|g=1 n=2 d=3 h=1,1:3 i=0:9", "Z|n=2 d=4 i=0:11 D=p1+p2+p3+p4"],
)
def test_rejects_a_negative_curve_count(tmp_path, key):
    # a count read back negative would poison every count built on it
    path = tmp_path / "c.egc"
    path.write_text(f"{MAGIC}\n{key}\t-7\n", encoding="utf-8")
    store = MemoStore()
    with pytest.raises(InvalidCacheFile, match="negative count -7"):
        store.load(path)
    path.write_text(f"{MAGIC}\n{key}\t0\n", encoding="utf-8")
    assert store.load(path) == 1


def test_pairings_keep_their_negative_values(tmp_path):
    # SS is negative on many bases; elliptic P^3 d=3 stores four such
    for family in ("QQ|", "HQ|", "HH|", "HMQ|", "SS|"):
        path = tmp_path / "c.egc"
        path.write_text(f"{MAGIC}\n{family}n=2 d=3 i=0:8;1:1\t-3\n", encoding="utf-8")
        assert MemoStore().load(path) == 1
    eng = Engine()
    eng.count(Problem.make(1, 3, 3, {(1, 2): 3}, {1: 12}))
    assert any(value < 0 for key, value in eng.store.items() if key.startswith("SS|"))
    eng.store.save(tmp_path / "real.egc")
    fresh = MemoStore()
    assert fresh.load(tmp_path / "real.egc") == len(eng.store)
    assert dict(fresh.items()) == dict(eng.store.items())


def test_rejects_bytes_that_are_not_utf8(tmp_path, capsys):
    path = tmp_path / "c.egc"
    path.write_bytes(MAGIC.encode() + b"\nkey\xff\t1\n")
    with pytest.raises(InvalidCacheFile, match="not UTF-8"):
        MemoStore().load(path)
    assert main(["count", "-n", "2", "-d", "1", "--points", "2", "--cache", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_store_conflict():
    store = MemoStore()
    store.store("k", 1)
    assert store.store("k", 1) == 1
    with pytest.raises(CacheConflict):
        store.store("k", 2)


def test_merge_conflict(tmp_path):
    a = MemoStore()
    a.store("k", 1)
    a.save(tmp_path / "a.egc")
    b = MemoStore()
    b.store("k", 2)
    b.save(tmp_path / "b.egc")
    merged = MemoStore()
    merged.load(tmp_path / "a.egc")
    with pytest.raises(CacheConflict):
        merged.load(tmp_path / "b.egc")


def test_merge_disjoint(tmp_path):
    a = MemoStore()
    a.store("k1", 1)
    a.save(tmp_path / "a.egc")
    b = MemoStore()
    b.store("k2", -7)
    b.save(tmp_path / "b.egc")
    merged = MemoStore()
    merged.load(tmp_path / "a.egc")
    merged.load(tmp_path / "b.egc")
    assert dict(merged.items()) == {"k1": 1, "k2": -7}


def test_save_keeps_the_records_of_a_run_that_shares_the_file(tmp_path):
    path = tmp_path / "shared.egc"
    a = MemoStore()
    a.store("k1", 1)
    a.store("k", 5)
    b = MemoStore()
    b.store("k2", -7)
    b.store("k", 5)
    a.save(path)
    b.save(path)
    fresh = MemoStore()
    assert fresh.load(path) == 3
    assert dict(fresh.items()) == {"k": 5, "k1": 1, "k2": -7}


def test_a_save_that_lands_inside_another_keeps_its_records(tmp_path):
    # b saves while a is between reading the file and replacing it; the
    # lock holds b back until a has replaced the file, so b then merges
    # a's records instead of a overwriting b's
    path = tmp_path / "shared.egc"
    first = MemoStore()
    first.store("k0", 0)
    first.save(path)
    a, b = MemoStore(), MemoStore()
    a.store("k1", 1)
    b.store("k2", 2)
    b_saving = threading.Thread(target=b.save, args=(path,))
    real_load = a.load

    def load_then_let_b_save(p):
        count = real_load(p)
        b_saving.start()
        b_saving.join(timeout=0.5)
        return count

    a.load = load_then_let_b_save
    a.save(path)
    b_saving.join()
    fresh = MemoStore()
    fresh.load(path)
    assert dict(fresh.items()) == {"k0": 0, "k1": 1, "k2": 2}
    assert sorted(os.listdir(tmp_path)) == ["shared.egc"]


def test_save_refuses_a_conflicting_record_and_writes_nothing(tmp_path):
    path = tmp_path / "shared.egc"
    a = MemoStore()
    a.store("k", 1)
    a.save(path)
    before = path.read_bytes()
    b = MemoStore()
    b.store("k", 2)
    b.store("k2", 3)
    with pytest.raises(CacheConflict):
        b.save(path)
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["shared.egc"]


def test_save_is_sorted_and_insertion_order_free(tmp_path):
    fwd = MemoStore()
    fwd.store("b", 2)
    fwd.store("a", 1)
    rev = MemoStore()
    rev.store("a", 1)
    rev.store("b", 2)
    fwd.save(tmp_path / "fwd.egc")
    rev.save(tmp_path / "rev.egc")
    assert (tmp_path / "fwd.egc").read_bytes() == (tmp_path / "rev.egc").read_bytes()


def test_save_replaces_without_temp_residue(tmp_path):
    path = tmp_path / "c.egc"
    store = MemoStore()
    store.store("k", 1)
    store.save(path)
    store.store("k2", 2)
    store.save(path)
    assert sorted(os.listdir(tmp_path)) == ["c.egc"]
    fresh = MemoStore()
    fresh.load(path)
    assert dict(fresh.items()) == {"k": 1, "k2": 2}


def test_warm_matches_cold(tmp_path):
    conics = Problem.make(0, 2, 2, {(1, 1): 2}, {0: 5})
    cold = Engine()
    value = cold.count(conics)
    # marked count: the two free contacts are labeled
    assert value == 2
    path = tmp_path / "c.egc"
    cold.store.save(path)

    warm_store = MemoStore()
    warm_store.load(path)
    warm = Engine(warm_store)
    assert warm.count(conics) == value
    # a warmed run adds nothing new, so the save is byte-identical
    warm.store.save(tmp_path / "w.egc")
    assert (tmp_path / "w.egc").read_bytes() == path.read_bytes()


def test_independent_cold_runs_serialize_identically(tmp_path):
    cubics = Problem.make(0, 3, 3, {(1, 2): 3}, {1: 12})
    for name in ("one.egc", "two.egc"):
        eng = Engine()
        assert eng.count(cubics) == 480960
        eng.store.save(tmp_path / name)
    assert (tmp_path / "one.egc").read_bytes() == (tmp_path / "two.egc").read_bytes()


def test_cold_table_cache_file_is_pinned(tmp_path, capsys):
    path = tmp_path / "cubics.egc"
    assert main(["table", "p3-elliptic-cubics", "--cache", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    assert data.count(b"\n") == 1 + 221
    assert hashlib.sha256(data).hexdigest() == ELLIPTIC_CUBICS_CACHE_SHA256
