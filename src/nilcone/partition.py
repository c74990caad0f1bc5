"""The graded partition function over positive roots, memoized and cacheable.

``p(x, n)`` counts the multisets of exactly n positive roots (repetitions
allowed) summing to the root-lattice vector x; ``big_p(x)`` is the sum
over all n.  These counts drive every alternating Weyl sum downstream, so
the table is memoized aggressively and can be persisted to disk.

The generating identity ties the whole table to the product over positive
roots of 1 / (1 - e^alpha t): the coefficient of t^n e^x is p(x, n).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from .errors import CacheFormatError, StaleCacheError
from .rootsys import RootSystem, RootSystemId, RootVector

PARTITION_CACHE_SCHEMA = 1


class PartitionTable:
    """Memoized partition counts for one root system.

    Readers may share a table across threads: values are deterministic,
    so concurrent memo insertion is benign (last write wins with an equal
    value under the GIL's atomic dict stores).
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        # DP order is the build order: by height, then lexicographic.
        self._roots = rs.positive_root_coords
        self._heights = tuple(sum(r) for r in self._roots)
        self._memo: dict[tuple[int, RootVector, int], int] = {}
        self._values: dict[tuple[RootVector, int], int] = {}

    def p(self, x, n: int) -> int:
        """Number of n-element positive-root multisets summing to x.

        Zero for any x outside the nonnegative root cone, for n < 0 and
        for n > height(x): every positive root has height >= 1.
        """
        x = tuple(x)
        if n < 0 or any(c < 0 for c in x):
            return 0
        if n > sum(x):
            return 0
        key = (x, n)
        hit = self._values.get(key)
        if hit is not None:
            return hit
        value = self._count(len(self._roots), x, n)
        self._values[key] = value
        return value

    def big_p(self, x) -> int:
        """Ungraded count: sum of p(x, n) over all n (finite support)."""
        x = tuple(x)
        if any(c < 0 for c in x):
            return 0
        return sum(self.p(x, n) for n in range(sum(x) + 1))

    def _count(self, j: int, x: RootVector, n: int) -> int:
        if n == 0:
            return 1 if not any(x) else 0
        if j == 0 or sum(x) < n:
            return 0
        key = (j, x, n)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        alpha = self._roots[j - 1]
        total = 0
        y = x
        m = 0
        while m <= n:
            total += self._count(j - 1, y, n - m)
            y2 = tuple(a - b for a, b in zip(y, alpha))
            if any(c < 0 for c in y2):
                break
            y = y2
            m += 1
        self._memo[key] = total
        return total

    # -- persistence -----------------------------------------------------

    def root_order_hash(self) -> str:
        """Hash of the DP root ordering; cache files must match it."""
        blob = json.dumps([list(r) for r in self._roots]).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def height_cutoff(self) -> int:
        """Largest height among cached arguments (0 when empty)."""
        if not self._values:
            return 0
        return max(sum(x) for x, _ in self._values)

    def save(self, path) -> Path:
        """Write the public (x, n) -> value records to a cache file.

        The file is written under a temporary name in the same directory
        and renamed over the old one, so a concurrent reader or a failed
        write never sees a torn file.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        records = sorted(
            [list(x), n, v] for (x, n), v in self._values.items()
        )
        payload = {
            "schema_version": PARTITION_CACHE_SCHEMA,
            "family": self.rs.family,
            "rank": self.rs.rank,
            "root_order_hash": self.root_order_hash(),
            "height_cutoff": self.height_cutoff(),
            "records": records,
        }
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                                   dir=path.parent)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return path

    def extend_from(self, path) -> int:
        """Merge records from a cache file; returns the number loaded.

        Partial tables are extendable: existing entries must agree with
        the file (both are reproducible by the DP), new ones are added.
        An unreadable file or one from another schema version raises
        StaleCacheError; any other mismatch raises CacheFormatError.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StaleCacheError(f"unreadable partition cache {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise StaleCacheError(f"unreadable partition cache {path}: not an object")
        if payload.get("schema_version") != PARTITION_CACHE_SCHEMA:
            raise StaleCacheError(
                f"partition cache {path} has schema "
                f"{payload.get('schema_version')!r}, expected {PARTITION_CACHE_SCHEMA}"
            )
        if payload.get("family") != self.rs.family or payload.get("rank") != self.rs.rank:
            raise CacheFormatError(f"partition cache {path} is for another type")
        if payload.get("root_order_hash") != self.root_order_hash():
            raise CacheFormatError(
                f"partition cache {path} was built with a different root ordering"
            )
        loaded = 0
        for x, n, v in payload["records"]:
            key = (tuple(x), n)
            existing = self._values.get(key)
            if existing is not None and existing != v:
                raise CacheFormatError(
                    f"partition cache {path} disagrees at {key}: {v} != {existing}"
                )
            self._values[key] = v
            loaded += 1
        return loaded


def cache_path(rs_id: RootSystemId, cache_dir) -> Path:
    return Path(cache_dir) / f"partition_{rs_id.family}{rs_id.rank}.json"


def load_table(rs: RootSystem, cache_dir) -> PartitionTable:
    """A table for rs, preloaded from the cache directory when present.

    A stale or unreadable cache file counts as a miss: a one-line warning
    goes to stderr and the next save rewrites the file.
    """
    table = PartitionTable(rs)
    path = cache_path(rs.id, cache_dir)
    if path.exists():
        try:
            table.extend_from(path)
        except StaleCacheError as exc:
            print(f"warning: {exc}; recomputing", file=sys.stderr)
    return table


# Shared per-process registry so the Weyl sums, the multiplicity module and
# the CLI all reuse one memo per root system.
_tables: dict[RootSystemId, PartitionTable] = {}


def table_for(rs: RootSystem) -> PartitionTable:
    table = _tables.get(rs.id)
    if table is None:
        table = PartitionTable(rs)
        _tables[rs.id] = table
    return table


def p(rs: RootSystem, x, n: int) -> int:
    """Convenience wrapper over the shared table."""
    return table_for(rs).p(x, n)


def big_p(rs: RootSystem, x) -> int:
    """Convenience wrapper over the shared table."""
    return table_for(rs).big_p(x)


def default_cache_dir() -> Path:
    """Cache directory, overridable with NILCONE_CACHE_DIR."""
    env = os.environ.get("NILCONE_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nilcone"
