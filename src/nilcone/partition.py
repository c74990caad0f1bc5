"""The graded partition function over positive roots, memoized and cacheable.

``poly(x)`` is the coefficient tuple of P(x; q) = sum_n p(x, n) q^n, with
p(x, n) the number of multisets of exactly n positive roots (repetitions
allowed) summing to the root-lattice vector x; ``p`` reads one coefficient
and ``big_p`` their sum.  Every alternating Weyl sum downstream is a signed
sum of these polynomials, taken by ``signed_sum``; they are memoized and
can be persisted.

The generating identity ties the whole table to the product over positive
roots of 1 / (1 - e^alpha q): the coefficient of q^n e^x is p(x, n).

The table builds P over the first j roots in DP order, P_j, by the
two-term recurrence P_j(y) = P_{j-1}(y) + q P_j(y - alpha_j), filled
iteratively up each alpha_j chain so every memo entry costs one add.
The first rank roots are the simple ones, so for j <= rank P_j(x) is
q^height(x) or 0 in closed form and is not stored.  The Python recursion
descends only in j: its depth is at most the number of positive roots,
whatever the height of x.

The DP runs on Python ints (``_Packing``).  A key packs x into one int,
a fixed-width field per coordinate with a guard bit on top, so x - alpha
and the test that it stays in the cone are one subtraction and one mask
(SWAR: Lamport, CACM 18, 1975).  A value is P(x; 2^B), the polynomial
evaluated at a power of two (Kronecker substitution), so the two-term
step is one shift and one add.  B is fixed by a proven bound M on the
coefficients: p(x, n) counts multisets of n positive roots summing to x,
so the p(x, n) of distinct x count disjoint multisets, and for
height(x) <= H those are multisets of at most H of the N roots (at most
C(N + H - 1, H)) of total height at most H (``_coefficient_bound``
takes the smaller count).  M bounds every memo coefficient and every
coefficient of a signed sum over distinct arguments; B = bits(M) + 1
leaves a sign bit for the balanced unpack of such a sum.  The field
width and B are fixed for a height capacity H; a taller argument
rebuilds the memo at the wider width, so a field never overflows into
its neighbour.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from math import comb
from operator import lshift
from pathlib import Path

from .errors import CacheFormatError, StaleCacheError
from .rootsys import RootSystem, RootSystemId, RootVector

PARTITION_CACHE_SCHEMA = 2


class _Packing:
    """The partition DP at one width: packed keys, Kronecker values.

    Each coordinate of a key gets `span` bits, enough for any coordinate
    of a cone point up to the height capacity and of every root, and a
    guard bit above them.  Values are P_j(x; 2^bits).  Nothing changes
    but the memo and targets dicts, so a table swaps in a wider packing
    without disturbing a DP running on this one.
    """

    def __init__(self, roots, rank: int, height: int, repeats: int):
        self.rank = rank
        self.height = height
        self.repeats = repeats
        # No coefficient of a value, nor of a signed sum of values in which
        # no x occurs more than `repeats` times, exceeds this; one more bit
        # holds the sign.
        self.bound = repeats * _coefficient_bound([sum(r) for r in roots], height)
        self.bits = self.bound.bit_length() + 1
        span = max(height, *map(max, roots)).bit_length()
        self.shifts = tuple((span + 1) * i for i in range(rank))
        self.guards = sum(1 << (s + span) for s in self.shifts)
        self.roots = [self.key(r) for r in roots]
        self.root_heights = [sum(r) for r in roots]
        # j -> key mask of the coordinates none of the first j roots cover,
        # for j <= rank.
        self.uncovered = [
            sum(((1 << span) - 1) << self.shifts[i] for i in range(rank)
                if not any(r[i] for r in roots[:j]))
            for j in range(rank + 1)
        ]
        # j -> {key: P_j(x; 2^bits)} over the first j roots only; levels
        # j <= rank have a closed form and are never stored.
        self.memo: dict[int, dict[int, int]] = {
            j: {} for j in range(rank + 1, len(roots) + 1)
        }
        # key -> P(x; 2^bits) for the x whose coefficients the table holds.
        self.targets: dict[int, int] = {}

    def key(self, x) -> int:
        """x, whose coordinates fit in their fields, packed into one int."""
        return sum(map(lshift, x, self.shifts))

    def pack(self, coeffs) -> int:
        """sum_n c_n 2^(bits n)."""
        value = 0
        for c in reversed(coeffs):
            value = (value << self.bits) | c
        return value

    def unpack(self, value: int, height: int) -> tuple[int, ...]:
        """The height + 1 coefficients of a value with none negative."""
        bits, mask = self.bits, (1 << self.bits) - 1
        return tuple((value >> (bits * n)) & mask for n in range(height + 1))

    def balanced(self, value: int, height: int) -> dict[int, int]:
        """{n: c_n} for value = sum_{n <= height} c_n 2^(bits n) with every
        |c_n| < 2^(bits - 1), zeros dropped: the digits are read in
        balanced base 2^bits, so a negative coefficient stays negative."""
        bits, half = self.bits, 1 << (self.bits - 1)
        # Adding half to every digit makes each one nonnegative, with no carry.
        offset = ((1 << (bits * (height + 1))) - 1) // ((1 << bits) - 1) * half
        digits = self.unpack(value + offset, height)
        return {n: d - half for n, d in enumerate(digits) if d != half}

    def poly(self, j: int, x: int, h: int) -> int:
        """P_j(x; 2^bits) for the key x of a cone point of height h, or 0.

        Up to j = rank only simple roots are in play, so P_j(x) is
        q^h when x lies on the coordinates they cover and 0 otherwise.
        Above, it is memoized or filled in by ``_fill``.
        """
        if j <= self.rank:
            return 0 if x & self.uncovered[j] else 1 << (self.bits * h)
        hit = self.memo[j].get(x)
        return hit if hit is not None else self._fill(j, x, h)

    def _fill(self, j: int, x: int, h: int) -> int:
        """P_j(x; 2^bits) for j > rank and an x not in memo level j.

        Either alpha_j is unused or one copy of it is removed:
        P_j(y) = P_{j-1}(y) + q P_j(y - alpha_j).  That is filled up the
        alpha_j chain through x, from its lowest member in the cone or
        its first one already memoized, one shift and add per entry; the
        recursion only descends in j, so its depth is at most N.
        """
        memo = self.memo[j]
        alpha, guards = self.roots[j - 1], self.guards
        chain = [x]
        below = 0
        y = x
        while True:
            # Every field keeps its guard bit iff it does not go negative.
            t = (y | guards) - alpha
            if t & guards != guards:
                break
            y = t ^ guards
            hit = memo.get(y)
            if hit is not None:
                below = hit
                break
            chain.append(y)
        step, bits = self.root_heights[j - 1], self.bits
        h -= step * (len(chain) - 1)
        lower = self.memo.get(j - 1)
        for y in reversed(chain):
            # P_{j-1}(y) is nonzero: j - 1 >= rank and y is in the cone.
            if lower is None:  # j - 1 = rank: the simple roots cover y
                value = 1 << (bits * h)
            else:
                value = lower.get(y)
                if value is None:
                    value = self._fill(j - 1, y, h)
            below = value + (below << bits)
            memo[y] = below
            h += step
        return below


class PartitionTable:
    """Memoized partition polynomials for one root system.

    Readers may share a table across threads: values are deterministic,
    so concurrent memo insertion is benign (last write wins with an equal
    value under the GIL's atomic dict stores), and a wider packing
    replaces the old one whole.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        # DP order is the build order: by height, then lexicographic, so the
        # first rank roots are the simple ones.
        self._roots = rs.positive_root_coords
        self._packing = _Packing(self._roots, rs.rank, 0, 1)
        # x -> P(x), the public values a cache file holds.
        self._values: dict[RootVector, tuple[int, ...]] = {}
        # (x, packing, P(x; 2^bits)) for the values signed_sum computed and
        # has not yet unpacked into _values; _settle() does, before anything
        # reads _values.
        self._fresh: list[tuple[RootVector, _Packing, int]] = []
        # True when the table holds values its cache file lacks, or that
        # file is stale; save() clears it.
        self.unsaved = False

    def reserve(self, height: int, repeats: int = 1) -> _Packing:
        """The packing, rebuilt wider if needed, for signed sums of
        arguments up to `height` in which no argument occurs more than
        `repeats` times.  A sweep reserves its tallest height first, so
        all its values share one width."""
        packing = self._packing
        if height > packing.height or repeats > packing.repeats:
            self._settle()
            packing = _Packing(self._roots, self.rs.rank, max(height, packing.height),
                               max(repeats, packing.repeats))
            self._packing = packing
        return packing

    def poly(self, x) -> tuple[int, ...]:
        """Coefficients (p(x, 0), ..., p(x, height x)) of P(x; q); empty
        for any x outside the nonnegative root cone."""
        x = tuple(x)
        if any(c < 0 for c in x):
            return ()
        self._settle()
        hit = self._values.get(x)
        if hit is None:
            h = sum(x)
            packing = self.reserve(h)
            hit = packing.unpack(packing.poly(len(self._roots), packing.key(x), h), h)
            self._values[x] = hit
            self.unsaved = True
        return hit

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

    def signed_sum(self, terms) -> dict[int, int]:
        """{n: sum of sign * p(x, n)} over (sign, x) terms with every x in
        the nonnegative cone, zeros dropped.

        Each term adds or subtracts P(x; 2^B) into one int, which is
        unpacked once in balanced base 2^B.  B covers the signed sum: it
        is sized for the tallest x and for the most times any one x can
        occur (once, for distinct arguments such as a dot orbit's).
        """
        if not terms:
            return {}
        height = max(sum(x) for _, x in terms)
        repeats = len(terms) - len({x for _, x in terms}) + 1
        packing = self.reserve(height, repeats)
        kronecker = self._kronecker
        total = 0
        for sign, x in terms:
            if sign > 0:
                total += kronecker(packing, x)
            else:
                total -= kronecker(packing, x)
        return packing.balanced(total, height)

    def _kronecker(self, packing: _Packing, x: RootVector) -> int:
        """P(x; 2^bits) at the packing's width for a cone point x.  A new
        x is computed by the DP and queued for _values."""
        key = packing.key(x)
        value = packing.targets.get(key)
        if value is None:
            coeffs = self._values.get(x)
            if coeffs is None:
                value = packing.poly(len(self._roots), key, sum(x))
                self._fresh.append((x, packing, value))
                self.unsaved = True
            else:
                value = packing.pack(coeffs)
            packing.targets[key] = value
        return value

    def _settle(self) -> None:
        """Unpack the values signed_sum computed into _values.  Each entry
        is popped whole, so threads settling at once share the work."""
        while True:
            try:
                x, packing, value = self._fresh.pop()
            except IndexError:
                return
            self._values[x] = packing.unpack(value, sum(x))

    # -- persistence -----------------------------------------------------

    def root_order_hash(self) -> str:
        """Hash of the DP root ordering; cache files must match it."""
        blob = json.dumps([list(r) for r in self._roots]).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def height_cutoff(self) -> int:
        """Largest height among cached arguments (0 when empty)."""
        self._settle()
        return max((sum(x) for x in self._values), default=0)

    def save(self, path) -> Path:
        """Write the public x -> coefficients records to a cache file.

        The file is written under a temporary name in the same directory
        and renamed over the old one, so a concurrent reader or a failed
        write never sees a torn file.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._settle()
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
        self._settle()
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


def _coefficient_bound(heights, height: int) -> int:
    """A bound on every coefficient of P(x; q) with height(x) <= height,
    and on every coefficient of a signed sum of such P over distinct x,
    for positive roots of the given heights.

    p(x, n) counts multisets of n of the N roots summing to x, so the
    p(x, n) of distinct x count disjoint multisets.  Those are multisets
    of n <= height roots, at most C(N + height - 1, height) of them, and
    multisets of total height <= height, counted here as coin change over
    the root heights; the smaller count bounds both.
    """
    counts = [1] + [0] * height  # multisets by total height
    for a in heights:
        for h in range(a, height + 1):
            counts[h] += counts[h - a]
    return min(comb(len(heights) + height - 1, height), sum(counts))


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


def default_cache_dir() -> Path:
    """Cache directory, overridable with NILCONE_CACHE_DIR."""
    env = os.environ.get("NILCONE_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nilcone"
