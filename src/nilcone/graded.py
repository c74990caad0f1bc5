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

A sweep is a serial loop of ``series`` calls on one calculator, so every
partition value it computes lands in the one table that a cache file
persists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

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


@dataclass(frozen=True)
class CohomologyTable:
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
        series = self._euler_profile(lam, (0,) * self.rs.rank)
        for n, v in series.items():
            if v < 0:
                raise InternalInconsistencyError(
                    f"nilcone multiplicity d_{n}({tuple(lam)}) = {v} < 0"
                )
        return series

    def induced_series(self, lam) -> dict[int, int]:
        """{i: a_i(lam)} with the shift by k applied."""
        raw = self._euler_profile(lam, self.rs.theta_short)
        series = {m + self.k: v for m, v in raw.items()}
        for i, v in series.items():
            if v < 0:
                raise InternalInconsistencyError(
                    f"induced-wall multiplicity a_{i}({tuple(lam)}) = {v} < 0"
                )
        return series

    def subregular_series(self, lam) -> dict[int, int]:
        d = self.nilcone_series(lam)
        a = self.induced_series(lam)
        series = {}
        for n in sorted(set(d) | set(a)):
            v = d.get(n, 0) - a.get(n, 0)
            if v < 0:
                raise PositivityViolationError(tuple(lam), n, v)
            if v:
                series[n] = v
        return series

    def series(self, variety: Variety, lam) -> dict[int, int]:
        if variety == Variety.NILCONE:
            return self.nilcone_series(lam)
        return self.subregular_series(lam)

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

        for lam in self.sweep_domain(sweep):
            if kind == ModuleKind.TRIVIAL:
                for n, v in self.nilcone_series(lam).items():
                    put(2 * n, lam, v)
            elif kind == ModuleKind.TILTING:
                for n, v in self.subregular_series(lam).items():
                    put(2 * n, lam, v)
            elif kind == ModuleKind.INDUCED_WALL:
                for i, v in self.induced_series(lam).items():
                    put(2 * i - 1, lam, v)
            elif kind == ModuleKind.WEYL:
                for n, v in self.subregular_series(lam).items():
                    put(2 * n, lam, v)
                for n, v in self.nilcone_series(lam).items():
                    put(2 * n + 1, lam, v)
            else:  # SIMPLE
                d = self.nilcone_series(lam)
                a = self.induced_series(lam)
                for i in sorted(set(d) | {j - 1 for j in a}):
                    put(2 * i + 1, lam, d.get(i, 0) + a.get(i + 1, 0))

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
        d_n(lam) = 0 unless lam <= n * theta_long, one series per lam below
        max_degree * theta_long covers every degree.
        """
        variety = Variety(variety)
        coeffs = [0] * (max_degree + 1)
        for lam in self._domain(vscale(max_degree, self.rs.theta_long)):
            dim = weyl_dim(self.rs, lam)
            for n, c in self.series(variety, lam).items():
                if n <= max_degree:
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

