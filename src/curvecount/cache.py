"""Persistent memo store for computed counts.

Keys are the canonical problem texts prefixed by the count family
(X, W, Z and the fibration primitives QQ, HQ, HH, HMQ, SS).  The file
format is one header line ``EGC-CACHE v1`` followed by one
``key<TAB>value`` record per line, UTF-8, LF line endings, keys sorted,
so saves are byte-identical for equal contents.  Values are decimal
integers exactly as ``str(int)`` writes them; a curve count (an X, W or
Z key) is never negative, while a pairing can be.  A save merges the
records already in the file (MemoStore.save), under an advisory lock
on ``<path>.lock`` that is removed again once the file is replaced.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import re

MAGIC = "EGC-CACHE v1"
_VALUE_RE = re.compile(r"0|-?[1-9][0-9]*")
# The count families whose values are numbers of curves.
_COUNT_FAMILIES = ("X|", "W|", "Z|")


class CacheConflict(RuntimeError):
    """Two different values were recorded for the same key."""


class InvalidCacheFile(ValueError):
    """The file is not a cache file or is corrupt."""


class MemoStore:
    def __init__(self):
        self._data: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def items(self):
        return self._data.items()

    def lookup(self, key: str):
        return self._data.get(key)

    def store(self, key: str, value: int) -> int:
        old = self._data.get(key)
        if old is not None and old != value:
            raise CacheConflict(f"key {key!r} already holds {old}, refusing to store {value}")
        self._data[key] = value
        return value

    def load(self, path) -> int:
        """Merge records from a cache file; conflicting values are fatal,
        and so is a negative curve count, which would poison every count
        that reads it.  Returns the number of records read."""
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidCacheFile(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
        lines = text.split("\n")
        if not lines or lines[0] != MAGIC:
            raise InvalidCacheFile(f"{path}: missing {MAGIC!r} header")
        count = 0
        for lineno, line in enumerate(lines[1:], start=2):
            if line == "":
                continue
            key, sep, value = line.partition("\t")
            if not sep:
                raise InvalidCacheFile(f"{path}:{lineno}: expected key<TAB>value")
            if not _VALUE_RE.fullmatch(value):
                raise InvalidCacheFile(f"{path}:{lineno}: bad integer {value!r}")
            number = int(value)
            if number < 0 and key.startswith(_COUNT_FAMILIES):
                raise InvalidCacheFile(f"{path}:{lineno}: negative count {value} for {key!r}")
            self.store(key, number)
            count += 1
        return count

    def save(self, path) -> None:
        """Write the records to ``path`` after merging in those already
        there (say, from another run that shares the file); a differing
        value raises CacheConflict and writes nothing.  The read, merge
        and replace hold an advisory lock (_exclusive), so runs that save
        into one file at once wait for each other and all keep their
        records; only a writer that ignores the lock can still be lost."""
        with _exclusive(f"{path}.lock"):
            if os.path.exists(path):
                self.load(path)
            body = "".join(f"{key}\t{self._data[key]}\n" for key in sorted(self._data))
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(MAGIC + "\n" + body)
            os.replace(tmp, path)


@contextlib.contextmanager
def _exclusive(lock_path):
    """Hold an exclusive ``fcntl.flock`` on the file ``lock_path``,
    created for the purpose and removed before the lock is released.
    A waiter whose lock lands on a file a holder has already removed
    opens the path afresh, so two holders never overlap."""
    while True:
        fh = open(lock_path, "a")
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            if os.path.samestat(os.fstat(fh.fileno()), os.stat(lock_path)):
                break
        except FileNotFoundError:
            pass
        fh.close()
    try:
        yield
    finally:
        os.unlink(lock_path)
        fh.close()
