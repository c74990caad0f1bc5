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
parts) or 2n - 1 (odd parts) is presentation only and is spelled out in
every table header.

A sweep (``series_batch``, ``cohomology_table``, ``hilbert_series``)
gathers the dot-orbit terms of every weight of its domain first and hands
them to the partition table as one batch, so the DP fills all of their
values in one pass, and every value lands in the one table that a cache
file persists.  The series are then checked weight by weight, in sweep
order, as ``series`` checks one.  ``hilbert_series`` keeps each profile
packed: a mask checks its signs and only the degrees it sums are read.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

from . import partition
from .errors import (
    InternalInconsistencyError,
    PositivityViolationError,
    WrongRootSystemError,
)
from .multiplicity import WeightMultiplicities, weyl_dim
from .rootsys import RootSystem, Weight, vscale
from .weyl import dot_terms, shift_constant

DEGREE_CONVENTION = (
    "degrees are polynomial degrees n; even cohomology sits in degree 2n, "
    "odd cohomology in degree 2n-1"
)


class ModuleKind(str, Enum):
    TRIVIAL = "trivial"
    INDUCED_WALL = "induced_wall"
    TILTING = "tilting"
    WEYL = "weyl"
    SIMPLE = "simple"


class Variety(str, Enum):
    NILCONE = "nilcone"
    SUBREGULAR = "subregular"


class CohomologyTable(NamedTuple):
    """Rows of dominant-weight multiplicities per cohomological degree."""

    family: str
    rank: int
    kind: ModuleKind
    k: int
    max_i: int
    sweep: int
    rows: MappingProxyType
    degree_convention: str = DEGREE_CONVENTION

    def row(self, i: int) -> dict[Weight, int]:
        return dict(self.rows.get(i, {}))

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "kind": self.kind.value,
            "k": self.k,
            "degree_convention": self.degree_convention,
            "rows": [
                {
                    "i": i,
                    "entries": [
                        {"lambda": list(lam), "mult": m}
                        for lam, m in sorted(self.rows[i].items())
                    ],
                }
                for i in sorted(self.rows)
            ],
        }

    def iter_csv_rows(self):
        """(i, lambda-string, mult) triples, one per nonzero entry."""
        for i in sorted(self.rows):
            for lam, m in sorted(self.rows[i].items()):
                yield i, ",".join(str(c) for c in lam), m

    def parity_ok(self) -> bool:
        """Whether the kind's vanishing pattern holds in every row."""
        if self.kind in (ModuleKind.TRIVIAL, ModuleKind.TILTING):
            bad = 1
        elif self.kind in (ModuleKind.INDUCED_WALL, ModuleKind.SIMPLE):
            bad = 0
        else:
            return True  # Weyl modules live in both parities
        return all(not row for i, row in self.rows.items() if i % 2 == bad)


class GradedCalculator:
    """Bundles a root system with its partition table.

    Every query, one degree or a whole series, is read off one profile
    E(lam, mu; q) per (lam, mu).  All methods are pure given the immutable
    inputs; one calculator can serve any number of queries and threads,
    and its table keeps every value they compute for the next query and
    for the cache file.
    """

    def __init__(
        self,
        rs: RootSystem,
        *,
        table: partition.PartitionTable | None = None,
    ):
        self.rs = rs
        self.table = table if table is not None else partition.table_for(rs)
        self.k = shift_constant(rs)

    # -- the common alternating kernel ------------------------------------

    def _euler_profile(self, lam, mu) -> dict[int, int]:
        """{n: q^n coefficient of E(lam, mu; q)}, zeros dropped.

        One add per term: ``PartitionTable.signed_sum`` adds or subtracts
        each P(w.lam - mu; 2^B) into one int and unpacks it once in
        balanced base 2^B, so a negative coefficient comes back negative
        for the checks of the series methods.  The dot orbit's arguments
        are distinct, so B needs no room for the number of terms.
        """
        return self.table.signed_sum(dot_terms(self.rs, lam, mu))

    def _euler_profiles(self, lams, mus) -> list[tuple[dict[int, int], ...]]:
        """For each lam, the profiles E(lam, mu; q) of ``_euler_profile``
        for every mu in mus, all from one ``PartitionTable.signed_sums``
        batch: every dot-orbit argument is gathered before any DP work."""
        rs = self.rs
        flat = self.table.signed_sums([dot_terms(rs, lam, mu)
                                       for lam in lams for mu in mus])
        n = len(mus)
        return [tuple(flat[i:i + n]) for i in range(0, len(flat), n)]

    # -- named multiplicities ----------------------------------------------

    def nilcone_mult(self, lam, n: int) -> int:
        """Multiplicity of L(lam) in degree n of the nilpotent cone ring."""
        return self.nilcone_series(lam).get(n, 0)

    def induced_odd_mult(self, lam, i: int) -> int:
        """Multiplicity of L(lam) in odd cohomology degree 2i-1 of the
        wall-induced module; zero for i < k (negative symmetric power)."""
        return self.induced_series(lam).get(i, 0)

    def subregular_mult(self, lam, n: int) -> int:
        """Multiplicity of L(lam) in degree n of the subregular orbit
        closure ring: d_n - a_n, guaranteed nonnegative."""
        return self.subregular_series(lam).get(n, 0)

    # -- whole series --------------------------------------------------------

    def nilcone_series(self, lam) -> dict[int, int]:
        return self._nilcone(lam, self._euler_profile(lam, (0,) * self.rs.rank))

    def induced_series(self, lam) -> dict[int, int]:
        """{i: a_i(lam)} with the shift by k applied."""
        return self._induced(lam, self._euler_profile(lam, self.rs.theta_short))

    def subregular_series(self, lam) -> dict[int, int]:
        return self._subregular(lam, self.nilcone_series(lam), self.induced_series(lam))

    def series(self, variety: Variety, lam) -> dict[int, int]:
        if variety == Variety.NILCONE:
            return self.nilcone_series(lam)
        return self.subregular_series(lam)

    def series_batch(self, variety: Variety, lams) -> list[dict[int, int]]:
        """[series(variety, lam) for lam in lams], with every partition
        value from one batch: the same series, checked in the same order,
        so the first failing lam raises the error ``series`` raises."""
        lams, zero = list(lams), (0,) * self.rs.rank
        if variety == Variety.NILCONE:
            return [self._nilcone(lam, d)
                    for lam, (d,) in zip(lams, self._euler_profiles(lams, [zero]))]
        profiles = self._euler_profiles(lams, [zero, self.rs.theta_short])
        return [self._subregular(lam, self._nilcone(lam, d), self._induced(lam, a))
                for lam, (d, a) in zip(lams, profiles)]

    def _nilcone(self, lam, profile) -> dict[int, int]:
        """{n: d_n(lam)} from E(lam, 0; q), every value checked >= 0."""
        for n, v in profile.items():
            if v < 0:
                raise InternalInconsistencyError(
                    f"nilcone multiplicity d_{n}({tuple(lam)}) = {v} < 0"
                )
        return profile

    def _induced(self, lam, profile) -> dict[int, int]:
        """{i: a_i(lam)} from E(lam, theta_s; q), shifted by k and checked."""
        series = {m + self.k: v for m, v in profile.items()}
        for i, v in series.items():
            if v < 0:
                raise InternalInconsistencyError(
                    f"induced-wall multiplicity a_{i}({tuple(lam)}) = {v} < 0"
                )
        return series

    @staticmethod
    def _subregular(lam, d, a) -> dict[int, int]:
        """{n: t_n(lam)} = d - a, every value checked >= 0."""
        series = {}
        for n in sorted(set(d) | set(a)):
            v = d.get(n, 0) - a.get(n, 0)
            if v < 0:
                raise PositivityViolationError(tuple(lam), n, v)
            if v:
                series[n] = v
        return series

    # -- assembled tables ------------------------------------------------------

    def sweep_domain(self, sweep: int) -> tuple[Weight, ...]:
        """Dominant weights dominance-below sweep * theta_long."""
        return self._domain(vscale(sweep, self.rs.theta_long))

    def _domain(self, top) -> tuple[Weight, ...]:
        """Dominant weights dominance-below top, with the partition table
        sized for all of them up front: every argument of their profiles
        is at most as tall as top, so their values share one width."""
        self.table.reserve(sum(self.rs.root_coords_int(top)))
        return self.rs.dominant_below(top)

    def cohomology_table(
        self, kind: ModuleKind, sweep: int, max_i: int
    ) -> CohomologyTable:
        """Assemble rows H^i -> {lam: mult} for one module kind.

        Row conventions per kind (n, i are polynomial degrees):
          trivial       H^{2n}   = d_n          (odd rows vanish)
          tilting       H^{2n}   = t_n          (odd rows vanish)
          induced_wall  H^{2i-1} = a_i          (even rows vanish)
          weyl          H^{2n}   = t_n,  H^{2n+1} = d_n
          simple        H^{2i+1} = d_i + a_{i+1} (even rows vanish)
        """
        kind = ModuleKind(kind)
        rows: dict[int, dict[Weight, int]] = {i: {} for i in range(max_i + 1)}

        def put(i, lam, v):
            if v and 0 <= i <= max_i:
                rows[i][lam] = rows[i].get(lam, 0) + v

        zero, theta_s = (0,) * self.rs.rank, self.rs.theta_short
        mus = {ModuleKind.TRIVIAL: [zero],
               ModuleKind.INDUCED_WALL: [theta_s]}.get(kind, [zero, theta_s])
        lams = self.sweep_domain(sweep)
        # The checks run per lam in sweep order, as a loop of the series
        # methods would run them.
        for lam, profiles in zip(lams, self._euler_profiles(lams, mus)):
            if kind == ModuleKind.INDUCED_WALL:
                for i, v in self._induced(lam, profiles[0]).items():
                    put(2 * i - 1, lam, v)
                continue
            d = self._nilcone(lam, profiles[0])
            if kind == ModuleKind.TRIVIAL:
                for n, v in d.items():
                    put(2 * n, lam, v)
                continue
            a = self._induced(lam, profiles[1])
            if kind == ModuleKind.SIMPLE:
                for i in sorted(set(d) | {j - 1 for j in a}):
                    put(2 * i + 1, lam, d.get(i, 0) + a.get(i + 1, 0))
            else:  # TILTING, WEYL
                for n, v in self._subregular(lam, d, a).items():
                    put(2 * n, lam, v)
                if kind == ModuleKind.WEYL:
                    for n, v in d.items():
                        put(2 * n + 1, lam, v)

        frozen = MappingProxyType({i: dict(r) for i, r in rows.items()})
        return CohomologyTable(
            family=self.rs.family,
            rank=self.rs.rank,
            kind=kind,
            k=self.k,
            max_i=max_i,
            sweep=sweep,
            rows=frozen,
        )

    def hilbert_series(self, variety: Variety, max_degree: int) -> list[int]:
        """Dimension of each graded piece of the chosen coordinate ring.

        Coefficient n sums mult_n(lam) * dim L(lam) over dominant lam; as
        d_n(lam) = 0 unless lam <= n * theta_long, one profile per lam
        below max_degree * theta_long covers every degree.

        Every profile of the domain comes from one
        ``PartitionTable.packed_sums`` batch and stays packed: its signs
        are checked with one mask per packed value, and only its digits
        n <= max_degree are read.  The subregular profile is
        D - q^k A with D = E(lam, 0; 2^B) and A = E(lam, theta_s; 2^B):
        once D and A pass, every digit of D - (A << B k) lies in [-M, M],
        so one more mask over k more fields checks t_n >= 0.  A lam that
        fails a check is handed to ``series``, which raises the error the
        per-weight path raises.
        """
        variety = Variety(variety)
        rs, k = self.rs, self.k
        zero = (0,) * rs.rank
        mus = [zero] if variety == Variety.NILCONE else [zero, rs.theta_short]
        lams = self._domain(vscale(max_degree, rs.theta_long))
        sums = iter(self.table.packed_sums(
            [dot_terms(rs, lam, mu) for lam in lams for mu in mus]))
        coeffs = [0] * (max_degree + 1)
        for lam in lams:
            packing, value = next(sums)
            bits, fields = packing.bits, packing.height + 1
            ok = packing.nonnegative(value, fields)
            if variety == Variety.SUBREGULAR:
                _, odd = next(sums)  # the same packing: one batch, one width
                value -= odd << (bits * k)
                ok = (ok and packing.nonnegative(odd, fields)
                      and packing.nonnegative(value, fields + k))
            if not ok:
                value = sum(c << (bits * n) for n, c in self.series(variety, lam).items())
            # Every digit is a plain base-2^bits digit now: keep n <= max_degree.
            low = value & ((1 << (bits * (max_degree + 1))) - 1)
            if low:
                dim = weyl_dim(rs, lam)
                for n, c in enumerate(packing.unpack(low, max_degree)):
                    coeffs[n] += c * dim
        return coeffs


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

