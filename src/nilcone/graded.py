"""Graded multiplicities for the nilpotent cone and subregular orbit closure.

Everything here is one alternating Weyl sum of the graded partition
polynomials of ``PartitionTable.poly``, Lusztig's q-analogue of Kostant's
formula E(lam, mu; q) = sum_w (-1)^w P(w.lam - mu; q), with the contributing
w found by the pruned dot-orbit walk of ``weyl.dot_terms``.  Writing
E(lam, mu, n) for its q^n coefficient:

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

Every query reads its profiles through one checked path,
``GradedCalculator._profiles``: it gathers the dot-orbit terms of every
weight asked for (one for ``nilcone_series`` and its kin, a whole domain
for ``series_batch``, ``cohomology_table`` and ``hilbert_series``) and
hands them to the partition table as one batch, which takes the width of
its tallest argument (for a domain, the top weight's own), so the DP
fills all of their values in one pass, and every value lands in the
calculator's table, which a cache file persists.
Each profile stays packed as one int, E(lam, mu; 2^B), and its signs are
checked weight by weight, in order, with one mask per profile; a checked
profile is read as plain base-2^B digits, and ``hilbert_series`` never
unpacks one: it sums the degrees it needs packed, in carry-free digit
classes, and unpacks only the sums.
"""

from __future__ import annotations

from enum import Enum
from math import comb

from . import partition
from .errors import (
    InternalInconsistencyError,
    PositivityViolationError,
    WrongRootSystemError,
)
from .multiplicity import WeightMultiplicities, weyl_dim
from .rootsys import RootSystem, Weight, vscale
from .weyl import dot_terms, shift_constant


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
    ``_profiles``.  All methods are pure given the immutable inputs; one
    calculator can serve any number of queries and threads, and its table
    keeps every value they compute for the next query and for the cache
    file.
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
        """Yield (lam, packing, profiles) for each lam, in order, with every
        profile packed at q = 2^B and checked digit by digit.

        mus is [0], [theta_s] or [0, theta_s], and every dot-orbit argument
        of every (lam, mu) goes into one ``PartitionTable.packed_sums``
        batch before any DP work.  The profiles are D = E(lam, 0; 2^B),
        whose digit n is d_n(lam), and A = q^k E(lam, theta_s; 2^B), whose
        digit i is a_i(lam), in the order of mus; when both are asked for,
        T = D - A follows, whose digit n is t_n(lam).

        One mask (``_Packing.nonnegative``) checks each profile, in the
        order D, A, T.  Once D and A pass, every digit of T lies in
        [-M, M], so its mask is sound too.  A lam that fails raises the
        error for the lowest negative degree of its first failing profile
        before any later lam is read.  A profile that passes is a plain
        base-2^B number: its digits are its fields.
        """
        rs, k, zero = self.rs, self.k, (0,) * self.rs.rank
        lams = list(lams)
        sums = iter(self.table.packed_sums(
            [dot_terms(rs, lam, mu) for lam in lams for mu in mus]))
        shifts = [0 if mu == zero else k for mu in mus]
        names = ["d" if mu == zero else "a" for mu in mus]
        if len(mus) == 2:
            names.append("t")
        for lam in lams:
            profiles = []
            for shift in shifts:
                packing, value = next(sums)  # one batch, one packing
                profiles.append(value << (packing.bits * shift))
            if len(mus) == 2:
                profiles.append(profiles[0] - profiles[1])
            fields = packing.height + k + 1
            for name, value in zip(names, profiles):
                if not packing.nonnegative(value, fields):
                    raise _negative(name, lam, packing.balanced(value, fields - 1))
            yield lam, packing, profiles

    def _series(self, lams, mus) -> list[dict[int, int]]:
        """{n: c_n} of the last profile of ``_profiles`` for each lam:
        d for [0], a for [theta_s], t for [0, theta_s]."""
        return [_digits(packing, profiles[-1])
                for _, packing, profiles in self._profiles(lams, mus)]

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

    def cohomology_table(
        self, kind: ModuleKind, sweep: int, max_i: int
    ) -> dict[int, dict[Weight, int]]:
        """Rows {i: {lam: mult}}, i = 0..max_i, of one module kind over
        ``sweep_domain(sweep)``; zero multiplicities are left out.

        Row conventions per kind (n, i are polynomial degrees):
          trivial       H^{2n}   = d_n          (odd rows vanish)
          tilting       H^{2n}   = t_n          (odd rows vanish)
          induced_wall  H^{2i-1} = a_i          (even rows vanish)
          weyl          H^{2n}   = t_n,  H^{2n+1} = d_n
          simple        H^{2i+1} = d_i + a_{i+1} (even rows vanish)
        """
        kind = ModuleKind(kind)
        rows: dict[int, dict[Weight, int]] = {i: {} for i in range(max_i + 1)}
        zero, theta_s = (0,) * self.rs.rank, self.rs.theta_short
        mus = {ModuleKind.TRIVIAL: [zero],
               ModuleKind.INDUCED_WALL: [theta_s]}.get(kind, [zero, theta_s])
        for lam, packing, profiles in self._profiles(self.sweep_domain(sweep), mus):
            if kind == ModuleKind.SIMPLE:
                d, a, _ = profiles
                # A's digit 0 is 0 (k >= 1), and digit i of the sum is
                # d_i + a_{i+1} <= 2M < 2^bits: no carry.
                parts = [(1, d + (a >> packing.bits))]
            elif kind == ModuleKind.WEYL:
                parts = [(0, profiles[2]), (1, profiles[0])]
            elif kind == ModuleKind.INDUCED_WALL:
                parts = [(-1, profiles[0])]
            else:  # TRIVIAL: d, TILTING: t
                parts = [(0, profiles[-1])]
            for offset, value in parts:  # each part fills rows of one parity
                for n, v in _digits(packing, value).items():
                    if 0 <= 2 * n + offset <= max_i:
                        rows[2 * n + offset][lam] = v
        return rows

    def hilbert_series(self, variety: Variety, max_degree: int) -> list[int]:
        """Dimension of each graded piece of the chosen coordinate ring.

        Coefficient n sums mult_n(lam) * dim L(lam) over dominant lam; as
        d_n(lam) = 0 unless lam <= n * theta_long, one profile per lam
        below max_degree * theta_long covers every degree.

        Every profile of the domain comes from one ``_profiles`` batch and
        stays packed, and the sum stays packed too, in s digit classes:
        accumulator j adds dim L(lam) times the digits n = j (mod s),
        n <= max_degree, of each checked profile, shifted down so that
        digit n sits at the bottom of slot (n - j) / s, s * B bits wide.
        s is the least integer with s * B >= bits(C(dim g + max_degree,
        max_degree)) + 1, so no slot carries into the next: every digit is
        >= 0 once the profile's mask passes, and the slot of degree n ends
        at the Hilbert coefficient n, the dimension of a quotient of
        S^n(g), at most C(dim g + n - 1, n) < 2^(s B).  Each class is
        unpacked once, at the end.
        """
        m, rs = max_degree, self.rs
        dim_g = rs.rank + 2 * rs.num_positive_roots
        accs = []
        for lam, packing, profiles in self._profiles(self.sweep_domain(m),
                                                   self._mus(variety)):
            if not accs:  # one batch: every lam shares this packing
                bits = packing.bits
                s = -(-(comb(dim_g + m, m).bit_length() + 1) // bits)
                digit = (1 << bits) - 1
                masks = [sum(digit << (bits * n) for n in range(j, m + 1, s))
                         for j in range(s)]
                low = (1 << (bits * (m + 1))) - 1
                accs = [0] * s
            if profiles[-1] & low:
                dim = weyl_dim(rs, lam)
                for j, mask in enumerate(masks):
                    accs[j] += dim * ((profiles[-1] & mask) >> (bits * j))
        # The domain holds 0, so the loop ran and s is set.
        width = s * bits
        slot = (1 << width) - 1
        return [(accs[n % s] >> (width * (n // s))) & slot for n in range(m + 1)]


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

