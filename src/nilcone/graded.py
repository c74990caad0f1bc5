"""Graded multiplicities for the nilpotent cone and subregular orbit closure.

Everything here is one alternating Weyl sum of the graded partition
polynomials, taken by ``PartitionTable.packed_sums`` (or, for
``hilbert_series``, by ``fold``): Lusztig's q-analogue of Kostant's
formula E(lam, mu; q) = sum_w (-1)^w P(w.lam - mu; q), with the
contributing w found by the pruned dot-orbit walk of ``weyl.dot_terms``.
Writing E(lam, mu, n) for its q^n coefficient:

* nilcone multiplicity   d_n(lam) = E(lam, 0, n)        (Hesselink)
* induced-wall odd part  a_i(lam) = E(lam, theta, i - k) (Andersen-Jantzen)
* subregular multiplicity t_n(lam) = d_n(lam) - a_n(lam)

with theta the dominant short root and k the shift constant
(2k - 1 = length of the reflection in theta).  The positivity of t_n is a
theorem, so a negative value is reported as a hard error, never clamped.

Degrees are polynomial degrees throughout; cohomological degree 2n (even
parts) or 2n - 1 (odd parts) is presentation only, spelled out by the
command line.  The queries return plain values: ``series(name, lams)``
is a list of {n: c_n}, the digits of the profile named d, a or t as
above at each lam, ``cohomology_table`` is {i: {lam: mult}},
``hilbert_series`` a list; one degree of a series is ``.get(n, 0)``.
Varieties and module kinds are plain strings, the keys of ``PROFILE``
(the profile each variety reads) and ``KIND_ROWS``; every query raises
ValueError for a name it does not know.  ``cohomology_table`` adds
digit n of each (offset, name) part of its kind into row 2n + offset,
so each kind writes its rows in one parity (weyl in both) and parity
vanishing holds there by construction; the A_2 tilting module where it
fails is a sum of three weight multiplicities, which the
``tilting-example`` command takes itself.

Every query but ``hilbert_series`` reads its profiles from
``GradedCalculator._profiles``: it gathers the dot-orbit terms of every
weight asked for (those given to ``series``, a whole domain for
``cohomology_table``) and hands them to the partition table as one
batch, which takes the width of its tallest argument (for a domain, the
top weight's own), so the DP fills all of their values in one pass, and
every value lands in the calculator's table, which a cache file
persists.  ``hilbert_series`` is the one query
off ``packed_sums``: it prints the degrees n <= max_degree alone, and
``fold`` gives their digits for every weight at once, from the few
partition values those degrees reach, with no table and no cache.  The
weights it folds are its domain: no weight it leaves out has a nonzero
digit, so ``hilbert_series`` sorts the folded weights below m *
theta_long into ``sweep_domain``'s order rather than enumerate it.
Each profile stays packed as one int, and ``GradedCalculator._checked``
checks every profile of both paths, weight by weight, in order, with one
mask each; ``_Digits.digits`` reads a checked one.  The rest of the
Hilbert series works on columns, one linear form at a time over every
weight (``rootsys.pair_columns``): ``_depths`` tests all folded weights
for the domain at once, and, after every profile has passed,
``weyl_dims`` takes the dimensions of the weights kept in one batch,
which ``_Digits.weighted_digits`` sums with their digits, a few fields
at a time.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mod, or_

from . import partition
from .errors import InternalInconsistencyError, PositivityViolationError
from .multiplicity import weyl_dims
from .rootsys import RootSystem, Weight, pair_columns, vadd, vscale, vsub
from .weyl import chamber_signs, dot_terms, shift_constant


# The profile each variety's series reads; its keys are the varieties.
PROFILE = {"nilcone": "d", "subregular": "t"}

# Each kind's (offset, name) parts: digit n of a profile adds into row
# 2n + offset.  Its keys are the module kinds, in the order --help lists them.
KIND_ROWS = {
    "trivial": [(0, "d")],
    "induced_wall": [(-1, "a")],
    "tilting": [(0, "t")],
    "weyl": [(0, "t"), (1, "d")],
    "simple": [(1, "d"), (-1, "a")],
}


class GradedCalculator:
    """Bundles a root system with its partition table: the one given,
    or a new one of its own.

    Every query is read off the checked profiles E(lam, mu; q) of
    ``_profiles``, or, for ``hilbert_series``, of ``fold``.  All methods
    are pure given the immutable inputs; one calculator can serve any
    number of queries and threads, and its table keeps every value they
    compute for the next query and for the cache file.
    """

    def __init__(
        self,
        rs: RootSystem,
        *,
        table: partition.PartitionTable | None = None,
    ):
        self.rs = rs
        self.table = table if table is not None else partition.PartitionTable(rs)
        self.k = shift_constant(rs)

    # -- the one checked kernel ----------------------------------------------

    def _profiles(self, lams, names):
        """(packing, ``_checked`` profiles of each lam, in order): the
        dot-orbit terms of every (lam, mu) the names need (``_sources``),
        in one ``packed_sums`` batch before any DP work."""
        rs, lams, mus = self.rs, list(lams), self._sources(names)
        packing, totals = self.table.packed_sums(
            [dot_terms(rs, lam, mu) for lam in lams for mu in mus.values()])
        values = iter(totals)
        rows = zip(lams, zip(*[values] * len(mus)))  # len(mus) values a lam
        return packing, self._checked(rows, mus, packing, packing.height + self.k + 1)

    def _sources(self, names) -> dict[str, Weight]:
        """{name: mu} of each E(lam, mu; q) the names need, d then a."""
        zero, theta_s = (0,) * self.rs.rank, self.rs.theta_short
        return {name: mu for name, mu in [("d", zero), ("a", theta_s)]
                if name in names or "t" in names}

    def _checked(self, rows, mus, digits, fields):
        """Yield (lam, {name: profile}) for each (lam, values) of rows, in
        order, with every profile checked digit by digit.

        values holds E(lam, mu; 2^B) for each {name: mu} of mus, exact at
        least modulo 2^(B fields).  The profiles, in this order, each cut
        to `fields` fields:

          d  D = E(lam, 0; 2^B)              digit n is d_n(lam)
          a  A = q^k E(lam, theta_s; 2^B)    digit i is a_i(lam)
          t  T = D - A, when both are read   digit n is t_n(lam)

        One mask (``_Digits.nonnegative``) checks each profile in turn;
        once D and A pass, every digit of T lies in [-M, M], so its mask
        is sound too.  The masks and balanced reads see the `fields`
        fields alone, so a residue is checked exactly.  A lam that fails
        raises the error for the lowest negative degree of its first
        failing profile before any later lam is read.  A profile that
        passes is a plain base-2^B number, which ``_Digits.digits`` reads.
        """
        bits, cut = digits.bits, (1 << (digits.bits * fields)) - 1
        for lam, values in rows:
            profiles = {name: (value << bits * self.k if name == "a" else value) & cut
                        for name, value in zip(mus, values)}
            if len(profiles) == 2:
                profiles["t"] = profiles["d"] - profiles["a"]
            for name, value in profiles.items():
                if not digits.nonnegative(value, fields):
                    raise _negative(name, lam, digits.balanced(value, fields - 1))
            yield lam, profiles

    # -- whole series --------------------------------------------------------

    def series(self, name: str, lams) -> list[dict[int, int]]:
        """[{n: digit n of profile name at lam} for lam in lams], name
        d, a or t (``_checked``): d_n, a_i with the shift by k applied
        (a_i = 0 for i < k), or t_n = d_n - a_n, guaranteed nonnegative.
        Every partition value comes from one batch, checked weight by
        weight in order."""
        if name not in ("d", "a", "t"):
            raise ValueError(f"{name!r} is not a profile name: d, a or t")
        packing, checked = self._profiles(lams, name)
        return [packing.digits(profiles[name]) for _, profiles in checked]

    # -- assembled tables ------------------------------------------------------

    def sweep_domain(self, sweep: int) -> tuple[Weight, ...]:
        """Dominant weights dominance-below sweep * theta_long."""
        return self.rs.dominant_below(vscale(sweep, self.rs.theta_long))

    def cohomology_table(self, kind: str, sweep: int, max_i: int,
                         totals: bool = False):
        """Rows {i: {lam: mult}}, i = 0..max_i, of one module kind over
        ``sweep_domain(sweep)``; zero multiplicities are left out.

        Row conventions per kind (n, i are polynomial degrees):
          trivial       H^{2n}   = d_n          (odd rows vanish)
          tilting       H^{2n}   = t_n          (odd rows vanish)
          induced_wall  H^{2i-1} = a_i          (even rows vanish)
          weyl          H^{2n}   = t_n,  H^{2n+1} = d_n
          simple        H^{2i+1} = d_i + a_{i+1} (even rows vanish)

        With totals, returns (rows, {lam: {"d": total, "t": total}})
        instead: the sum over all degrees of each weight's full d and t
        series, read from the same batch as the rows, which then holds the
        profiles of both mus whatever the kind.
        """
        if kind not in KIND_ROWS:
            raise ValueError(f"{kind!r} is not a module kind: {', '.join(KIND_ROWS)}")
        parts = KIND_ROWS[kind]
        names = {name for _, name in parts} | set("dt" if totals else "")
        rows: dict[int, dict[Weight, int]] = {i: {} for i in range(max_i + 1)}
        sums: dict[Weight, dict[str, int]] = {}
        packing, checked = self._profiles(self.sweep_domain(sweep), names)
        for lam, profiles in checked:
            for offset, name in parts:
                for n, v in packing.digits(profiles[name]).items():
                    if 0 <= 2 * n + offset <= max_i:
                        row = rows[2 * n + offset]
                        row[lam] = row.get(lam, 0) + v
            if totals:
                sums[lam] = {name: sum(packing.digits(profiles[name]).values())
                             for name in "dt"}
        return (rows, sums) if totals else rows

    def hilbert_series(self, variety: str, max_degree: int) -> list[int]:
        """Dimension of each graded piece of the chosen coordinate ring.

        Coefficient n sums mult_n(lam) * dim L(lam) over dominant lam; as
        d_n(lam) = 0 unless lam <= n * theta_long, the lam below m *
        theta_long, m = max_degree, cover every degree.  Their profiles
        come from ``fold``, not from the table.  The folded lam whose m *
        theta_long - lam has nonnegative integer root coordinates
        (``_depths``) are in that domain, and ``_checked`` checks them in
        ``sweep_domain``'s order; every other lam of the domain has a
        zero profile, which passes.  The dimensions of the lam with a
        nonzero profile come in one ``weyl_dims`` batch once all have
        passed, and ``_Digits.weighted_digits`` sums them with their
        digits.  A folded lam outside the domain whose profile, A
        shifted and cut, is not 0 is an internal inconsistency.
        """
        if variety not in PROFILE:
            raise ValueError(f"{variety!r} is not a variety: {', '.join(PROFILE)}")
        m, name = max_degree, PROFILE[variety]
        mus = self._sources(name)
        digits, folded = fold(self.rs, m, mus.values())
        depth = _depths(self.rs, vscale(m, self.rs.theta_long), set().union(*folded))
        rows = ((lam, [profiles.pop(lam, 0) for profiles in folded])
                for lam in sorted(depth, key=lambda lam: (-depth[lam], lam)))
        kept = {lam: profiles[name]
                for lam, profiles in self._checked(rows, mus, digits, m + 1)
                if profiles[name]}
        coeffs = digits.weighted_digits(weyl_dims(self.rs, kept), kept.values(), m + 1)
        # What is left is outside the domain (mus is [0] or [0, theta_s]):
        # the digits D keeps, and A keeps once shifted and cut, must be 0.
        low = (1 << (digits.bits * (m + 1))) - 1
        for name, keep, rest in zip("da", [low, low >> digits.bits * self.k], folded):
            stray = sorted(lam for lam, value in rest.items() if value & keep)
            if stray:
                raise InternalInconsistencyError(
                    f"{name} profile of {stray[0]} is nonzero outside sweep_domain({m})")
        return coeffs


def fold(rs: RootSystem, m: int, mus) -> tuple[partition._Digits, list[dict]]:
    """(digits, [{lam: E(lam, mu; 2^B) mod 2^(B (m + 1))}, one per mu]),
    every lam with a nonzero value, from ``partition.low_degrees``.

    In E(lam, mu; q) = sum_w (-1)^w P(w.lam - mu; q), w.lam - mu = x
    exactly when w(lam + rho) = x + mu + rho, and lam + rho is regular.
    So each x whose x + mu + rho is off every wall adds its value, with
    the sign of w, to the one lam with lam + rho dominant in that orbit
    (``weyl.chamber_signs``), and the others add nothing: the
    Racah-Speiser (Brauer-Klimyk) fold of the q-partition function.
    Each key is read once per mu, straight into x + mu + rho.
    """
    digits, keys, values = partition.low_degrees(rs, m)
    folded = []
    for mu in mus:
        points = keys.points(values, vadd(mu, rs.rho))
        profile: dict[Weight, int] = {}
        for sign, nu, value in zip(chamber_signs(rs, points), points, values.values()):
            if sign:
                top = tuple(nu)
                profile[top] = profile.get(top, 0) + sign * value
        del points  # before the next mu's are built
        folded.append({vsub(top, rs.rho): v for top, v in profile.items() if v})
    return digits, folded


def _depths(rs: RootSystem, top: Weight, lams) -> dict[Weight, int]:
    """{lam: height(top - lam)} for each lam of lams (not empty) with
    top - lam a nonnegative integer root sum.

    The root coordinates of top - lam are fw_to_root_adj (top - lam) /
    det, taken one adjugate row at a time over columns of top - lam: a
    lam is kept when every row gives a nonnegative multiple of det.
    """
    lams = list(lams)
    columns = [[t - x for x in column] for t, column in zip(top, zip(*lams))]
    det, size = rs.fw_to_root_det, len(lams)
    low, rest, total = [0] * size, [0] * size, [0] * size
    for row in rs.fw_to_root_adj:
        num = pair_columns(row, columns)
        low = list(map(min, low, num))
        rest = list(map(or_, rest, map(mod, num, repeat(det))))
        total = list(map(add, total, num))
    return {lam: h // det for lam, lo, r, h in zip(lams, low, rest, total)
            if lo >= 0 and not r}


def _negative(name, lam, digits) -> Exception:
    """The error for the lowest negative digit of a failing profile, from
    its balanced digits: d or a, an internal inconsistency; t, a
    positivity violation."""
    n, v = next((n, v) for n, v in digits.items() if v < 0)
    if name == "t":
        return PositivityViolationError(tuple(lam), n, v)
    kind = "nilcone" if name == "d" else "induced-wall"
    return InternalInconsistencyError(
        f"{kind} multiplicity {name}_{n}({tuple(lam)}) = {v} < 0")

