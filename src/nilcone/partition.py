"""The graded partition function over positive roots, tabulated and cacheable.

``poly(x)`` is the coefficient tuple of P(x; q) = sum_n p(x, n) q^n, with
p(x, n) the number of multisets of exactly n positive roots (repetitions
allowed) summing to the root-lattice vector x.  Every alternating Weyl
sum downstream is a signed sum of these polynomials, taken by
``packed_sums`` as one int per sum, for a whole batch of sums at once,
and read by a mask test and ``_Digits.digits`` (the graded queries) or by
``_Digits.balanced`` (Kostant's formula, where a non-dominant mu can give
a negative digit); ``_Digits.weighted_digits`` sums checked values digit
by digit with weights (the Hilbert series' dimensions).
The table keeps each polynomial it was asked for once, as the
coefficient tuple a cache record holds, and can persist them.  This
module is the only one that knows the cache file: ``load_table`` ties a
table to its file in a cache directory, ``PartitionTable.persist``
rewrites that file only when the table has changed, and ``cache_files``
and ``cache_summary`` give what ``cache list`` and ``cache clear`` show.
The file, ``partition_<TYPE>.txt``, is ASCII lines: a header (schema,
family, rank, root-order hash, and the SHA-256 of the record lines as
written), then one record per line, the coordinates of x and then the
coefficients of P(x; q), in the order ``sorted`` puts them.  It is read
and written with CPython's built-in SHA-256 and ``int`` alone: json and
hashlib (which loads OpenSSL) cost more to import than the DP a small
file saves (``PartitionTable.extend_from`` lists every check).

The generating identity ties the whole table to the product over positive
roots of 1 / (1 - e^alpha q): the coefficient of q^n e^x is p(x, n).

The table builds P over the first j roots in DP order, P_j, by the
two-term recurrence P_j(y) = P_{j-1}(y) + q P_j(y - alpha_j), so every
entry costs one add.  The first rank roots are the simple ones, so
P_rank(x) is q^height(x) in closed form.  All the new arguments of a
batch are filled together, level by level and without recursion
(``_Packing.fill``): a backward pass from j = N down collects the keys
each level needs, and a forward pass from j = rank + 1 up fills them
in one dict, updated in place.  The levels are the scratch space of one
fill; only the top values P_N = P outlive it.

``hilbert`` is the one query off ``packed_sums``: ``low_degrees``
builds the digits n <= m of every P(x; q) forward from 0, over the few
x that at most m roots reach; no table holds such residues.  Its keys
pack the weight coordinates of x, not its root coordinates, each biased
to be nonnegative (``_WeightKeys``), because the fold that reads them
works in weight coordinates: one read of each field gives x + mu + rho.

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
takes the smaller count).  M bounds every coefficient of P_j and every
coefficient of a signed sum over distinct arguments (a sum in which an
argument occurs twice is refused); B = bits(M) + 1 leaves a sign bit
for the balanced unpack of such a sum, and makes the test that every
digit of it is >= 0 one add and one mask over the top bit of each
field (``_Digits.nonnegative``).  Each batch builds one packing, its
field width and B fixed by its tallest argument, so no field overflows
into its neighbour; it packs the held values it reads and stores the
values it fills unpacked.
"""

import os
import sys
from errno import ENOTDIR
from itertools import repeat
from math import comb
from operator import and_, lshift, mul, sub
from pathlib import Path

from .errors import StaleCacheError, report
from .rootsys import RootSystem, RootSystemId, RootVector, build

PARTITION_CACHE_SCHEMA = 3
# The first word of a cache file's header line.
_MAGIC = "nilcone-partition-cache"


class _Digits:
    """Values packed at q = 2^bits, one field per digit, read back and
    sign-tested digit by digit."""

    def __init__(self, bits: int):
        self.bits = bits

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

    def digits(self, value: int) -> dict[int, int]:
        """{n: c_n}, zeros dropped, of a value = sum_n c_n 2^(bits n) that
        passed its sign test, read from the lowest nonzero digit up."""
        bits, mask, found = self.bits, (1 << self.bits) - 1, {}
        n = ((value & -value).bit_length() - 1) // bits if value else 0
        value >>= bits * n
        while value:
            if value & mask:
                found[n] = value & mask
            value, n = value >> bits, n + 1
        return found

    def weighted_digits(self, weights, values, fields: int) -> list[int]:
        """[sum over (w, value) pairs of w c_n(value), for n < fields], for
        nonnegative weights and values that passed their sign test.

        Every digit of such a value is below 2^(bits - 1), so each sum is
        below 2^(bits - 1) sum(weights) <= 2^(bits s), s the least such.
        The fields n = r (mod s), masked out of every value and summed
        with their weights, lie bits s apart and never carry into each
        other: one big-int sum per r holds digits that a reader of width
        bits s takes apart.
        """
        weights, values, bits = list(weights), list(values), self.bits
        s = -(-(bits - 1 + sum(weights).bit_length()) // bits)
        wide, field = _Digits(bits * s), (1 << bits) - 1
        sums = [0] * fields
        for r in range(min(s, fields)):
            mask = wide.pack([field] * len(range(r, fields, s))) << bits * r
            total = sum(map(mul, weights, map(and_, values, repeat(mask))))
            for j, c in wide.digits(total >> bits * r).items():
                sums[r + s * j] = c
        return sums

    def tops(self, fields: int) -> int:
        """The top bit of each of the lowest `fields` fields: 2^(bits - 1)
        in every digit, computed on each call."""
        bits = self.bits
        return ((1 << (bits * fields)) - 1) // ((1 << bits) - 1) << (bits - 1)

    def balanced(self, value: int, height: int) -> dict[int, int]:
        """{n: c_n} for value = sum_{n <= height} c_n 2^(bits n) with every
        |c_n| < 2^(bits - 1), zeros dropped: the digits are read in
        balanced base 2^bits, so a negative coefficient stays negative."""
        half = 1 << (self.bits - 1)
        # Adding half to every digit makes each one nonnegative, with no carry.
        digits = self.unpack(value + self.tops(height + 1), height)
        return {n: d - half for n, d in enumerate(digits) if d != half}

    def nonnegative(self, value: int, fields: int) -> bool:
        """Whether every balanced digit c_n of value = sum_{n < fields}
        c_n 2^(bits n), each |c_n| < 2^(bits - 1), is >= 0.

        Adding 2^(bits - 1) to every digit carries nowhere and leaves a
        field's top bit set exactly when its digit was >= 0, so the test
        is one add and one mask (SWAR, as for the keys).  A value that
        passes is a plain base-2^bits number: its digits are its fields.
        """
        tops = self.tops(fields)
        return (value + tops) & tops == tops


class _Packing(_Digits):
    """The partition DP at one width: packed keys, Kronecker values.

    Each coordinate of a key gets `span` bits, enough for any coordinate
    of a cone point up to the height capacity and of every root, and a
    guard bit above them.  Values are P_j(x; 2^bits).
    """

    def __init__(self, roots, rank: int, height: int):
        self.rank = rank
        self.height = height
        # No coefficient of a value, nor of a signed sum of values of
        # distinct x, exceeds this; one more bit holds the sign.
        self.bound = _coefficient_bound([sum(r) for r in roots], height)
        super().__init__(self.bound.bit_length() + 1)
        span = max(height, *map(max, roots)).bit_length()
        self.shifts = tuple((span + 1) * i for i in range(rank))
        self.guards = sum(1 << (s + span) for s in self.shifts)
        # A 1 in every field, and one field's mask: (key * ones >> shifts[-1])
        # & field is the height of a cone point no taller than `height`.
        self.ones = sum(1 << s for s in self.shifts)
        self.field = (1 << (span + 1)) - 1
        self.roots = [self.key(r) for r in roots]

    def key(self, x) -> int:
        """x, whose coordinates fit in their fields, packed into one int."""
        return sum(map(lshift, x, self.shifts))

    def levels(self, keys) -> list[list[int]]:
        """The keys each level j = N, ..., rank + 1 needs to give P_N(x;
        2^bits) at the given keys of cone points, one list per level,
        top level first.

        Either alpha_j is unused or one copy of it is removed:
        P_j(y) = P_{j-1}(y) + q P_j(y - alpha_j).  Level j needs the
        alpha_j chain down from each key wanted there, until it leaves
        the cone or meets a key already collected, and each of those
        needs P_{j-1}, so they are what level j - 1 is asked for.  A
        chain goes in bottom-up, after the chain it rests on, so each
        list is in the order ``fill`` computes it.
        """
        guards, levels = self.guards, []
        for alpha in reversed(self.roots[self.rank:]):
            lacking: dict[int, None] = {}
            for y in keys:
                chain = []
                while y not in lacking:
                    chain.append(y)
                    # Every field keeps its guard bit iff it does not go negative.
                    t = (y | guards) - alpha
                    if t & guards != guards:
                        break
                    y = t ^ guards
                for y in reversed(chain):
                    lacking[y] = None
            keys = list(lacking)
            levels.append(keys)
        return levels

    def fill(self, keys) -> dict[int, int]:
        """{y: P_N(y; 2^bits)} over the keys asked for; the dict holds
        the other keys of the levels too.

        One dict holds the values and is updated in place, level by
        level from j = rank + 1 up, each list in order, so y - alpha_j
        holds P_j before y is read: P_j(y) = P_{j-1}(y) + q P_j(y -
        alpha_j), one shift and one add per entry whose chain goes on,
        and no recursion.  A key whose alpha_j chain ends keeps P_{j-1}(y)
        = P_j(y).  Level rank counts only simple roots, so it is
        q^height(y) for every cone point y, and it is the top level when
        N = rank.
        """
        levels = self.levels(keys)
        bits, guards, ones, top_field, field = (
            self.bits, self.guards, self.ones, self.shifts[-1], self.field)
        # y * ones sums y's fields into its top field without a carry.
        values = {y: 1 << (bits * ((y * ones >> top_field) & field))
                  for y in (levels[-1] if levels else keys)}
        for alpha in self.roots[self.rank:]:
            # Popped, so each level's key list is freed once it is filled.
            for y in levels.pop():
                t = (y | guards) - alpha
                if t & guards == guards:
                    values[y] += values[t ^ guards] << bits
        return values


class PartitionTable:
    """Partition polynomials for one root system.

    Readers may share a table across threads: each batch owns its
    packing and levels, and the held values are immutable coefficient
    tuples, so two threads that store the same argument store equal
    tuples (last write wins under the GIL's atomic dict stores).
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        # DP order is the build order: by height, then lexicographic, so the
        # first rank roots are the simple ones.
        self._roots = rs.positive_root_coords
        # x -> (p(x, 0), ..., p(x, height x)): every value the table holds,
        # as its cache record has it.
        self._values: dict[RootVector, tuple[int, ...]] = {}
        # The cache file persist() writes, set by load_table; None
        # persists nothing.
        self.path: Path | None = None
        # True when the table holds values its cache file lacks, or that
        # file is stale; save() clears it.
        self.unsaved = False

    def poly(self, x) -> tuple[int, ...]:
        """Coefficients (p(x, 0), ..., p(x, height x)) of P(x; q); empty
        for any x outside the nonnegative root cone, ValueError for an x
        without rank coordinates."""
        x = tuple(x)
        if len(x) == self.rs.rank and min(x) < 0:
            return ()
        self.packed_sums([[(1, x)]])
        return self._values[x]

    def packed_sums(self, term_lists) -> tuple[_Packing, list[int]]:
        """(packing, [sum of sign * P(x; 2^B) for each list]) for lists of
        (sign, x) terms with distinct x of rank coordinates, each in the
        nonnegative cone: the one alternating kernel, before any
        unpacking, over a whole batch of sums.

        The batch builds one packing, sized for its tallest x, so every
        balanced digit c_n of a total has |c_n| < 2^(B - 1) and n <= the
        packing's height.  ``_Packing.balanced`` reads the digits and
        ``_Packing.nonnegative`` tests their signs.  Each term adds or
        subtracts P(x; 2^B) into one int: a held x is packed from its
        coefficients, and the x no batch had before are filled by one
        ``_Packing.fill`` and held unpacked.  A list in which an argument
        occurs twice, or an argument of the wrong length or off the
        nonnegative cone, raises ValueError before the table changes.
        """
        term_lists = list(term_lists)
        args: set[RootVector] = set()
        for terms in term_lists:
            xs = {x for _, x in terms}
            if len(xs) != len(terms):
                raise ValueError("an argument occurs twice in one term list")
            args |= xs
        rank = self.rs.rank
        if any(len(x) != rank or min(x) < 0 for x in args):
            raise ValueError(f"an argument does not have {rank} nonnegative coordinates")
        packing = _Packing(self._roots, rank, max(map(sum, args), default=0))
        values = self._values
        value_of: dict[RootVector, int] = {}
        new = []
        for x in args:
            coeffs = values.get(x)
            if coeffs is None:
                new.append(x)
            else:
                value_of[x] = packing.pack(coeffs)
        if new:
            keys = [packing.key(x) for x in new]
            top = packing.fill(keys)
            for x, k in zip(new, keys):
                value = value_of[x] = top[k]
                values[x] = packing.unpack(value, sum(x))
            self.unsaved = True
        totals = []
        for terms in term_lists:
            total = 0
            for sign, x in terms:
                if sign > 0:
                    total += value_of[x]
                else:
                    total -= value_of[x]
            totals.append(total)
        return packing, totals

    # -- persistence -----------------------------------------------------

    def root_order_hash(self) -> str:
        """Hash of the DP root ordering; cache files must match it."""
        blob = repr([list(r) for r in self._roots]).encode()
        return _sha256(blob).hexdigest()[:16]

    def height_cutoff(self) -> int:
        """Largest height among cached arguments (0 when empty)."""
        return max((sum(x) for x in self._values), default=0)

    def save(self, path) -> Path:
        """Write the x -> coefficients records to a cache file: the
        header line, then one line per record, sorted by x.

        The file is written under a temporary name in the same directory,
        unique to this process and thread, and renamed over the old one,
        so a concurrent reader or a failed write never sees a torn file.
        It is created with mode 0666 less the umask, like any new file.
        """
        import threading  # only a write needs the thread id

        path = Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError:  # the directory is a regular file
            raise NotADirectoryError(ENOTDIR, os.strerror(ENOTDIR),
                                     str(path.parent)) from None
        records = sorted(x + coeffs for x, coeffs in self._values.items())
        body = "".join(" ".join(map(str, r)) + "\n" for r in records).encode()
        header = (f"{_MAGIC} {PARTITION_CACHE_SCHEMA} {self.rs.family} "
                  f"{self.rs.rank} {self.root_order_hash()} "
                  f"{_sha256(body).hexdigest()}\n").encode()
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileExistsError:  # left by a killed writer with this pid and thread
            os.unlink(tmp)
            fd = os.open(tmp, flags, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header + body)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        self.unsaved = False
        return path

    def persist(self) -> None:
        """Save to the table's cache file, if it has one, when the table
        holds values the file lacks or the file it was loaded from was
        stale.  The cache only saves work, so a file that cannot be
        written is one warning on stderr, not an error."""
        if self.path is not None and self.unsaved:
            try:
                self.save(self.path)
            except OSError as exc:
                report(f"warning: cannot write partition cache {self.path}: "
                       f"{exc.strerror or exc}")

    def extend_from(self, path) -> int:
        """Merge records from a cache file; returns the number loaded, 0
        when it is not there.

        Partial tables are extendable: existing entries must agree with
        the file (both are reproducible by the DP), new ones are added as
        they are.  The checks, in order: a readable file, a schema-3
        header line, the family and rank, the root-order hash, the
        SHA-256 of the record bytes as read, before any parsing, each
        record's shape (``_parse_records``), and agreement with held
        values.  A file that fails any of them raises StaleCacheError
        and merges nothing.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            return 0
        except OSError as exc:
            raise StaleCacheError(f"unreadable partition cache {path}: "
                                  f"{exc.strerror or exc}") from exc
        head, _, body = data.partition(b"\n")
        fields = head.split(b" ")
        if fields[0] != _MAGIC.encode() or len(fields) != 6:
            raise StaleCacheError(f"partition cache {path} has no "
                                  f"schema-{PARTITION_CACHE_SCHEMA} header")
        _, schema, family, rank, order, digest = fields
        if schema != str(PARTITION_CACHE_SCHEMA).encode():
            raise StaleCacheError(
                f"partition cache {path} has schema "
                f"{schema.decode(errors='replace')!r}, expected {PARTITION_CACHE_SCHEMA}"
            )
        if family != self.rs.family.encode() or rank != str(self.rs.rank).encode():
            raise StaleCacheError(f"partition cache {path} is for another type")
        if order != self.root_order_hash().encode():
            raise StaleCacheError(
                f"partition cache {path} was built with a different root ordering"
            )
        if digest != _sha256(body).hexdigest().encode():
            raise StaleCacheError(
                f"partition cache {path}: records not matching their digest"
            )
        loaded = self._parse_records(body)
        if loaded is None:
            raise StaleCacheError(f"partition cache {path} holds a malformed record")
        for x, coeffs in loaded.items():
            held = self._values.get(x, coeffs)
            if held != coeffs:
                raise StaleCacheError(f"partition cache {path} disagrees at "
                                      f"{x}: {list(coeffs)} != {list(held)}")
        self._values.update(loaded)
        return len(loaded)

    def _parse_records(self, body: bytes) -> dict | None:
        """{x: coefficients} from the record lines as ``save`` writes
        them, or None unless every line is rank naturals, then exactly
        height(x) + 1 naturals, single spaces between them, and no x
        comes twice.  So no record is taller than its own line, and what
        a load holds is bounded by the file's size."""
        # Digits, spaces and newlines only: no sign, underscore, other
        # whitespace or other text that int() would accept.
        if body.translate(None, b"0123456789 \n"):
            return None
        lines = body.splitlines()
        rank, loaded = self.rs.rank, {}
        try:
            for line in lines:
                # int() raises ValueError for an empty field and for one
                # past the interpreter's digit limit.
                record = tuple(map(int, line.split(b" ")))
                x = record[:rank]
                if len(record) != rank + sum(x) + 1:
                    return None
                loaded[x] = record[rank:]
        except ValueError:
            return None
        return loaded if len(loaded) == len(lines) else None


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


class _WeightKeys:
    """The weights of the sums of at most m roots packed into one int,
    one field of `span` bits per weight coordinate, its top bit a guard.

    Coordinate j of such a sum lies between m times the least and m times
    the largest coordinate j of a root, or 0, so field j holds it plus
    bias_j = -m times that least value, and one more bit than that range
    needs makes the guard.  ``pack`` leaves the bias out, so it packs a
    step too: the key of y + alpha is key(y) + pack(alpha) whatever the
    signs of alpha's coordinates, and below key(y) when its last nonzero
    coordinate is negative.  Each field of key(y) - pack(alpha), for a
    root alpha, is less than 2^span from the same field of any key, so
    it names a key only when that key is the point y - alpha.
    """

    def __init__(self, roots, m: int):
        ranges = [(min(0, *c), max(c)) for c in zip(*roots)]
        span = max(m * (hi - lo) for lo, hi in ranges).bit_length() + 1
        self.shifts = [span * j for j in range(len(ranges))]
        self.bias = [-m * lo for lo, _ in ranges]
        self.field = (1 << span) - 1

    def pack(self, w) -> int:
        """sum_j w_j 2^(span j), for coordinates of either sign."""
        return sum(map(lshift, w, self.shifts))

    def columns(self, keys, offset) -> list[list[int]]:
        """[coordinate j of the weight of each key plus offset, in order,
        for each j]: each field read once, its bias taken out and offset
        put in.  ``zip(*columns)`` gives the points one at a time."""
        field = self.field
        return [[(key >> s & field) + c for key in keys]
                for s, c in zip(self.shifts, map(sub, offset, self.bias))]


def low_degrees(rs: RootSystem, m: int) -> tuple[_Digits, _WeightKeys, dict[int, int]]:
    """(digits, keys, {key of x: P(x; 2^B) mod 2^(B (m + 1))}) over every
    x with a nonzero digit n <= m: the sums of at most m positive roots,
    keyed by their weight coordinates, which ``keys.columns`` reads.

    B = bits(C(N + m - 1, m)) + 1: digit n of a signed sum over distinct
    x counts disjoint multisets of n roots, and one bit holds the sign.

    Built forward from P = 1 at 0, root by root, with no targets:
    P_j(y) = P_{j-1}(y) + q P_j(y - alpha_j), cut to m + 1 fields.
    Adding pack(alpha_j) moves a key one step up its alpha_j-line, so
    the keys ascend along the line, or descend when pack(alpha_j) < 0,
    and only a value with a digit n < m moves up it.  In that order, each
    moving y whose y - alpha_j is not moving starts a walk, up to the
    first value of digit m alone.  The order matters only where the
    moving keys of a line leave a gap that a walk crosses: the walk from
    below the gap must reach the key above it first.  The tests find one
    run per line, so no gap, from A1 to E8; the sort stays because
    nothing proves that for every type and m.
    """
    roots = rs.positive_roots
    digits = _Digits(comb(len(roots) + m - 1, m).bit_length() + 1)
    bits, low = digits.bits, (1 << (digits.bits * (m + 1))) - 1
    keys = _WeightKeys(roots, m)
    origin = keys.pack(keys.bias)
    moving, still = ({origin: 1}, {}) if m else ({}, {origin: 1})
    for r in roots:
        alpha = keys.pack(r)
        for y in sorted(moving, reverse=alpha < 0):
            w = (moving[y] << bits) & low if y - alpha not in moving else 0
            while w:  # q P_j(y), cut
                y += alpha
                v = moving.get(y, 0) + still.pop(y, 0) + w
                w = (v << bits) & low
                (moving if w else still)[y] = v
    moving.update(still)
    return digits, keys, moving


def _sha256(data: bytes):
    """The SHA-256 of data from CPython's built-in module, as ``random``
    gets sha512: importing hashlib loads OpenSSL, which costs more than
    reading a small cache file saves.  Only the code that reads or writes
    a file calls this, so a run with no cache does not load the module."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # an interpreter built without its own hashes
        from hashlib import sha256
    return sha256(data)


def cache_path(rs_id: RootSystemId, cache_dir) -> Path:
    return Path(cache_dir) / f"partition_{rs_id.family}{rs_id.rank}.txt"


def cache_files(cache_dir) -> list[Path]:
    """The paths in cache_dir named like partition cache files, sorted."""
    return sorted(Path(cache_dir).glob("partition_*.txt"))


def cache_summary(path) -> str:
    """One line on a cache file: its name and what a run of the type in
    its name loads from it, or ``stale`` when that run would not use it
    (a name ``build`` refuses included)."""
    stem = path.name[len("partition_"):-len(".txt")]
    try:
        rs_id = RootSystemId(stem[:1], int(stem[1:]))
        if cache_path(rs_id, path.parent) != path:  # "A02", "A+2": no run reads it
            raise ValueError(path.name)
        table = PartitionTable(build(*rs_id))
        records = table.extend_from(path)
    except (ValueError, StaleCacheError):
        return f"{path.name}: stale"
    return (f"{path.name}: schema={PARTITION_CACHE_SCHEMA} type={rs_id} "
            f"height_cutoff={table.height_cutoff()} records={records}")


def load_table(rs: RootSystem, cache_dir) -> PartitionTable:
    """A table for rs that persists to its file in cache_dir, preloaded
    from that file when present; a fresh table that persists nothing
    when cache_dir is None.

    A file that is not there is a silent miss; it is read, not looked
    for.  One that cannot be read or used (``StaleCacheError``) is a
    miss with a one-line warning, and marks the table unsaved, so
    ``persist`` rewrites it even if nothing new is computed.
    """
    table = PartitionTable(rs)
    if cache_dir is None:
        return table
    table.path = cache_path(rs.id, cache_dir)
    try:
        table.extend_from(table.path)
    except StaleCacheError as exc:
        report(f"warning: {exc}; recomputing")
        table.unsaved = True
    return table

