"""The graded partition function over positive roots, memoized and cacheable.

``poly(x)`` is the coefficient tuple of P(x; q) = sum_n p(x, n) q^n, with
p(x, n) the number of multisets of exactly n positive roots (repetitions
allowed) summing to the root-lattice vector x; ``p`` reads one coefficient
and ``big_p`` their sum.  Every alternating Weyl sum downstream is a signed
sum of these polynomials, so they are memoized and can be persisted.

The generating identity ties the whole table to the product over positive
roots of 1 / (1 - e^alpha q): the coefficient of q^n e^x is p(x, n).

The table builds P over the first j roots in DP order, P_j, by the
two-term recurrence P_j(y) = P_{j-1}(y) + q P_j(y - alpha_j), filled
iteratively up each alpha_j chain so every memo entry costs one
polynomial add.  The first rank roots are the simple ones, so for
j <= rank P_j(x) is q^height(x) or 0 in closed form and is not stored.
The Python recursion descends only in j: its depth is at most the number
of positive roots, whatever the height of x.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from operator import add, sub
from pathlib import Path

from .errors import CacheFormatError, StaleCacheError
from .rootsys import RootSystem, RootSystemId, RootVector

PARTITION_CACHE_SCHEMA = 2


class PartitionTable:
    """Memoized partition polynomials for one root system.

    Readers may share a table across threads: values are deterministic,
    so concurrent memo insertion is benign (last write wins with an equal
    value under the GIL's atomic dict stores).
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        # DP order is the build order: by height, then lexicographic, so the
        # first rank roots are the simple ones.
        self._roots = rs.positive_root_coords
        # j -> coordinates none of the first j roots cover, for j <= rank.
        self._uncovered = [
            tuple(i for i in range(rs.rank) if not any(r[i] for r in self._roots[:j]))
            for j in range(rs.rank + 1)
        ]
        # j -> {x: P_j(x)}, the polynomial over the first j roots only;
        # levels j <= rank have a closed form and are never stored.
        self._memo: dict[int, dict[RootVector, tuple[int, ...]]] = {
            j: {} for j in range(rs.rank + 1, len(self._roots) + 1)
        }
        # x -> P(x), the public values a cache file holds.
        self._values: dict[RootVector, tuple[int, ...]] = {}
        # True when the table holds values its cache file lacks, or that
        # file is stale; save() clears it.
        self.unsaved = False

    def poly(self, x) -> tuple[int, ...]:
        """Coefficients (p(x, 0), ..., p(x, height x)) of P(x; q); empty
        for any x outside the nonnegative root cone."""
        x = tuple(x)
        if any(c < 0 for c in x):
            return ()
        hit = self._values.get(x)
        if hit is not None:
            return hit
        value = self._poly(len(self._roots), x)
        self._values[x] = value
        self.unsaved = True
        return value

    def p(self, x, n: int) -> int:
        """Number of n-element positive-root multisets summing to x.

        Zero for any x outside the nonnegative root cone, for n < 0 and
        for n > height(x): every positive root has height >= 1.
        """
        coeffs = self.poly(x)
        return coeffs[n] if 0 <= n < len(coeffs) else 0

    def big_p(self, x) -> int:
        """Ungraded count: P(x; 1), the sum of p(x, n) over all n."""
        return sum(self.poly(x))

    def _poly(self, j: int, x: RootVector) -> tuple[int, ...]:
        """P_j(x) for x in the nonnegative cone, as height(x) + 1
        coefficients, or () when it is 0.

        Up to j = rank only simple roots are in play, so P_j(x) is
        q^height(x) when x lies on the coordinates they cover and 0
        otherwise.  Above, either alpha_j is unused or one copy of it is
        removed: P_j(y) = P_{j-1}(y) + q P_j(y - alpha_j).  That is filled
        up the alpha_j chain through x, from its lowest member in the cone
        or its first one already memoized, one polynomial add per entry;
        the recursion only descends in j, so its depth is at most N.
        """
        if j <= self.rs.rank:
            if any(x[i] for i in self._uncovered[j]):
                return ()
            return (0,) * sum(x) + (1,)
        memo = self._memo[j]
        hit = memo.get(x)
        if hit is not None:
            return hit
        alpha = self._roots[j - 1]
        chain = [x]
        below = None
        while True:
            y = tuple(map(sub, chain[-1], alpha))
            if min(y) < 0:
                break
            below = memo.get(y)
            if below is not None:
                break
            chain.append(y)
        for y in reversed(chain):
            # P_{j-1}(y) is nonzero: j - 1 >= rank and y is in the cone.
            value = self._poly(j - 1, y)
            if below:
                value = (value[:1] + tuple(map(add, value[1:], below))
                         + value[len(below) + 1:])
            memo[y] = value
            below = value
        return value

    # -- persistence -----------------------------------------------------

    def root_order_hash(self) -> str:
        """Hash of the DP root ordering; cache files must match it."""
        blob = json.dumps([list(r) for r in self._roots]).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def height_cutoff(self) -> int:
        """Largest height among cached arguments (0 when empty)."""
        return max((sum(x) for x in self._values), default=0)

    def save(self, path) -> Path:
        """Write the public x -> coefficients records to a cache file.

        The file is written under a temporary name in the same directory
        and renamed over the old one, so a concurrent reader or a failed
        write never sees a torn file.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        records = sorted([list(x), list(c)] for x, c in self._values.items())
        payload = {
            "schema_version": PARTITION_CACHE_SCHEMA,
            "family": self.rs.family,
            "rank": self.rs.rank,
            "root_order_hash": self.root_order_hash(),
            "height_cutoff": self.height_cutoff(),
            "records_sha256": records_digest(records),
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
        self.unsaved = False
        return path

    def extend_from(self, path) -> int:
        """Merge records from a cache file; returns the number loaded.

        Partial tables are extendable: existing entries must agree with
        the file (both are reproducible by the DP), new ones are added.
        A file that is unreadable, from another schema version, whose
        records do not match their digest or whose records are malformed
        raises StaleCacheError and merges nothing; any other mismatch
        raises CacheFormatError.
        """
        path = Path(path)
        payload = read_cache(path)
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
        records = payload.get("records")
        if not isinstance(records, list) or (
            payload.get("records_sha256") != records_digest(records)
        ):
            raise StaleCacheError(
                f"partition cache {path}: records missing or not matching their digest"
            )
        if not all(self._is_record(record) for record in records):
            raise StaleCacheError(f"partition cache {path} holds a malformed record")
        loaded = {tuple(x): tuple(coeffs) for x, coeffs in records}
        for x, coeffs in loaded.items():
            if self._values.get(x, coeffs) != coeffs:
                raise CacheFormatError(
                    f"partition cache {path} disagrees at {x}: "
                    f"{list(coeffs)} != {list(self._values[x])}"
                )
        self._values.update(loaded)
        return len(loaded)

    def _is_record(self, record) -> bool:
        """[x, coefficients]: rank naturals, then at most height(x) + 1."""
        def naturals(v):
            return isinstance(v, list) and all(type(c) is int and c >= 0 for c in v)

        return (isinstance(record, list) and len(record) == 2
                and naturals(record[0]) and len(record[0]) == self.rs.rank
                and naturals(record[1]) and len(record[1]) <= sum(record[0]) + 1)


def records_digest(records) -> str:
    """sha256 of the records' canonical JSON; stored in the cache header."""
    blob = json.dumps(records, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def read_cache(path) -> dict:
    """The JSON object in a cache file; StaleCacheError if there is none."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StaleCacheError(f"unreadable partition cache {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise StaleCacheError(f"unreadable partition cache {path}: not an object")
    return payload


def cache_path(rs_id: RootSystemId, cache_dir) -> Path:
    return Path(cache_dir) / f"partition_{rs_id.family}{rs_id.rank}.json"


def load_table(rs: RootSystem, cache_dir) -> PartitionTable:
    """A table for rs, preloaded from the cache directory when present.

    A stale or unreadable cache file counts as a miss: a one-line warning
    goes to stderr and the table is marked unsaved, so the next save
    rewrites the file even if nothing new is computed.
    """
    table = PartitionTable(rs)
    path = cache_path(rs.id, cache_dir)
    if path.exists():
        try:
            table.extend_from(path)
        except StaleCacheError as exc:
            print(f"warning: {exc}; recomputing", file=sys.stderr)
            table.unsaved = True
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
