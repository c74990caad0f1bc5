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
command line.  The queries return plain values: a series is {n: c_n},
``cohomology_table`` is {i: {lam: mult}}, ``hilbert_series`` a list;
one degree of a series is ``series.get(n, 0)``.

Every query but ``hilbert_series`` reads its profiles from
``GradedCalculator._profiles``: it gathers the dot-orbit terms of every
weight asked for (one for ``nilcone_series`` and its kin, a whole domain
for ``series_batch`` and ``cohomology_table``) and hands them to the
partition table as one batch, which takes the width of its tallest
argument (for a domain, the top weight's own), so the DP fills all of
their values in one pass, and every value lands in the calculator's
table, which a cache file persists.  ``hilbert_series`` is the one query
off ``packed_sums``: it prints the degrees n <= max_degree alone, and
``fold`` gives their digits for every weight at once, from the few
partition values those degrees reach, with no table and no cache.
Each profile stays packed as one int, E(lam, mu; 2^B), and every
profile of both paths is checked by ``GradedCalculator._checked``,
weight by weight, in order, with one mask per profile; a checked
profile is read as plain base-2^B digits.
"""

from __future__ import annotations

from enum import Enum
from operator import add, mul

from . import partition
from .errors import (
    InternalInconsistencyError,
    PositivityViolationError,
    WrongRootSystemError,
)
from .multiplicity import WeightMultiplicities, weyl_dim
from .rootsys import RootSystem, Weight, vadd, vscale, vsub
from .weyl import chamber_signs, dot_terms, shift_constant


class ModuleKind(str, Enum):
    TRIVIAL = "trivial"
    INDUCED_WALL = "induced_wall"
    TILTING = "tilting"
    WEYL = "weyl"
    SIMPLE = "simple"


class Variety(str, Enum):
    NILCONE = "nilcone"
    SUBREGULAR = "subregular"


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

    def _profiles(self, lams, mus):
        """(packing, ``_checked`` profiles of each lam, in order), every
        dot-orbit argument of every (lam, mu) in one ``packed_sums`` batch
        before any DP work; mus is [0], [theta_s] or [0, theta_s]."""
        rs, lams = self.rs, list(lams)
        packing, totals = self.table.packed_sums(
            [dot_terms(rs, lam, mu) for lam in lams for mu in mus])
        values = iter(totals)
        rows = zip(lams, zip(*[values] * len(mus)))  # len(mus) values a lam
        return packing, self._checked(rows, mus, packing, packing.height + self.k + 1)

    def _checked(self, rows, mus, digits, fields):
        """Yield (lam, profiles) for each (lam, values) of rows, in order,
        with every profile checked digit by digit.

        values[i] is E(lam, mus[i]; 2^B), exact at least modulo 2^(B
        fields).  The profiles are D = E(lam, 0; 2^B), whose digit n is
        d_n(lam), and A = q^k E(lam, theta_s; 2^B), whose digit i is
        a_i(lam), in the order of mus, each cut to `fields` fields; when
        both are asked for, T = D - A follows, whose digit n is t_n(lam).

        One mask (``_Digits.nonnegative``) checks each profile, in the
        order D, A, T; once D and A pass, every digit of T lies in [-M,
        M], so its mask is sound too.  The masks and balanced reads see
        the `fields` fields alone, so a residue is checked exactly.  A lam
        that fails raises the error for the lowest negative degree of its
        first failing profile before any later lam is read.  A profile
        that passes is a plain base-2^B number: its digits are its fields.
        """
        bits, cut = digits.bits, (1 << (digits.bits * fields)) - 1
        shifts = [bits * self.k if any(mu) else 0 for mu in mus]
        names = ["a" if any(mu) else "d" for mu in mus] + ["t"] * (len(mus) == 2)
        for lam, values in rows:
            profiles = [(value << shift) & cut for value, shift in zip(values, shifts)]
            if len(mus) == 2:
                profiles.append(profiles[0] - profiles[1])
            for name, value in zip(names, profiles):
                if not digits.nonnegative(value, fields):
                    raise _negative(name, lam, digits.balanced(value, fields - 1))
            yield lam, profiles

    def _series(self, lams, mus) -> list[dict[int, int]]:
        """{n: c_n} of the last profile of ``_profiles`` for each lam:
        d for [0], a for [theta_s], t for [0, theta_s]."""
        packing, checked = self._profiles(lams, mus)
        return [_digits(packing, profiles[-1]) for _, profiles in checked]

    def _mus(self, variety) -> list[Weight]:
        """The mus whose last profile is the variety's: d or t."""
        zero = (0,) * self.rs.rank
        if Variety(variety) == Variety.NILCONE:
            return [zero]
        return [zero, self.rs.theta_short]

    # -- whole series --------------------------------------------------------

    def nilcone_series(self, lam) -> dict[int, int]:
        """{n: d_n(lam)}."""
        return self.series_batch(Variety.NILCONE, [lam])[0]

    def induced_series(self, lam) -> dict[int, int]:
        """{i: a_i(lam)} with the shift by k applied; a_i = 0 for i < k."""
        return self._series([lam], [self.rs.theta_short])[0]

    def subregular_series(self, lam) -> dict[int, int]:
        """{n: t_n(lam)}, t_n = d_n - a_n, guaranteed nonnegative."""
        return self.series_batch(Variety.SUBREGULAR, [lam])[0]

    def series_batch(self, variety: Variety, lams) -> list[dict[int, int]]:
        """[series(variety, lam) for lam in lams], with every partition
        value from one batch, checked weight by weight in order."""
        return self._series(lams, self._mus(variety))

    # -- assembled tables ------------------------------------------------------

    def sweep_domain(self, sweep: int) -> tuple[Weight, ...]:
        """Dominant weights dominance-below sweep * theta_long."""
        return self.rs.dominant_below(vscale(sweep, self.rs.theta_long))

    def cohomology_table(self, kind: ModuleKind, sweep: int, max_i: int,
                         totals: bool = False):
        """Rows {i: {lam: mult}}, i = 0..max_i, of one module kind over
        ``sweep_domain(sweep)``; zero multiplicities are left out.

        Row conventions per kind (n, i are polynomial degrees):
          trivial       H^{2n}   = d_n          (odd rows vanish)
          tilting       H^{2n}   = t_n          (odd rows vanish)
          induced_wall  H^{2i-1} = a_i          (even rows vanish)
          weyl          H^{2n}   = t_n,  H^{2n+1} = d_n
          simple        H^{2i+1} = d_i + a_{i+1} (even rows vanish)

        With totals, returns (rows, {lam: {variety: total}}) instead: the
        sum over all degrees of each weight's full d and t series, read
        from the same batch as the rows, which then holds the profiles of
        both mus whatever the kind.
        """
        kind = ModuleKind(kind)
        rows: dict[int, dict[Weight, int]] = {i: {} for i in range(max_i + 1)}
        sums: dict[Weight, dict[Variety, int]] = {}
        zero, theta_s = (0,) * self.rs.rank, self.rs.theta_short
        mus = [zero, theta_s]
        if not totals and kind in (ModuleKind.TRIVIAL, ModuleKind.INDUCED_WALL):
            mus = [zero] if kind == ModuleKind.TRIVIAL else [theta_s]
        packing, checked = self._profiles(self.sweep_domain(sweep), mus)
        for lam, profiles in checked:
            if len(profiles) == 3:
                d, a, t = profiles
            elif kind == ModuleKind.TRIVIAL:
                [d] = profiles
            else:
                [a] = profiles
            if kind == ModuleKind.SIMPLE:
                # A's digit 0 is 0 (k >= 1), and digit i of the sum is
                # d_i + a_{i+1} <= 2M < 2^bits: no carry.
                parts = [(1, d + (a >> packing.bits))]
            elif kind == ModuleKind.WEYL:
                parts = [(0, t), (1, d)]
            elif kind == ModuleKind.INDUCED_WALL:
                parts = [(-1, a)]
            else:
                parts = [(0, d if kind == ModuleKind.TRIVIAL else t)]
            for offset, value in parts:  # each part fills rows of one parity
                for n, v in _digits(packing, value).items():
                    if 0 <= 2 * n + offset <= max_i:
                        rows[2 * n + offset][lam] = v
            if totals:
                sums[lam] = {Variety.NILCONE: sum(_digits(packing, d).values()),
                             Variety.SUBREGULAR: sum(_digits(packing, t).values())}
        return (rows, sums) if totals else rows

    def hilbert_series(self, variety: Variety, max_degree: int) -> list[int]:
        """Dimension of each graded piece of the chosen coordinate ring.

        Coefficient n sums mult_n(lam) * dim L(lam) over dominant lam; as
        d_n(lam) = 0 unless lam <= n * theta_long, the lam below m *
        theta_long, m = max_degree, cover every degree.  Their profiles
        come from ``fold``, not from the table, and are checked by
        ``_checked`` in domain order; a folded lam outside the domain whose
        profile, A shifted and cut, is not 0 is an internal inconsistency.
        """
        m, mus = max_degree, self._mus(variety)
        digits, folded = fold(self.rs, m, mus)
        rows = ((lam, [profiles.pop(lam, 0) for profiles in folded])
                for lam in self.sweep_domain(m))
        coeffs = [0] * (m + 1)
        for lam, profiles in self._checked(rows, mus, digits, m + 1):
            if profiles[-1]:
                dim = weyl_dim(self.rs, lam)
                for n, c in enumerate(digits.unpack(profiles[-1], m)):
                    coeffs[n] += dim * c
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
    """
    digits, values = partition.low_degrees(rs, m)
    columns = list(zip(*rs.cartan))  # x in weight coordinates: x . cartan
    weights = [[sum(map(mul, x, column)) for column in columns] for x in values]
    folded = []
    for mu in mus:
        shift = vadd(mu, rs.rho)
        points = [list(map(add, w, shift)) for w in weights]
        profile: dict[Weight, int] = {}
        for sign, nu, value in zip(chamber_signs(rs, points), points, values.values()):
            if sign:
                top = tuple(nu)
                profile[top] = profile.get(top, 0) + sign * value
        folded.append({vsub(top, rs.rho): v for top, v in profile.items() if v})
    return digits, folded


def _digits(packing, value) -> dict[int, int]:
    """{n: c_n}, zeros dropped, for value = sum_n c_n 2^(bits n) with
    every c_n in [0, 2^bits): a profile that passed its check."""
    top = (value.bit_length() - 1) // packing.bits
    return {n: c for n, c in enumerate(packing.unpack(value, top)) if c}


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


def a2_tilting_euler(rs: RootSystem, lam) -> int:
    """Signed multiplicity of L(lam) in the Euler characteristic of the
    cohomology of the A_2 tilting module with highest weight 3*omega_2:
    m_lam(3 omega_2) + m_lam(0) - 2 m_lam(omega_1 + omega_2).

    Only defined for A_2; can be negative, which is exactly the failure
    of parity vanishing this module exhibits.
    """
    if (rs.family, rs.rank) != ("A", 2):
        raise WrongRootSystemError(
            f"the tilting example is specific to A_2, got {rs.id}"
        )
    table = WeightMultiplicities(rs, lam)
    return table.at((0, 3)) + table.at((0, 0)) - 2 * table.at((1, 1))

