"""Weight multiplicities of irreducible highest-weight modules.

Two independent routes are kept side by side: Freudenthal's recursion is
the production path, the alternating Kostant sum over the dot-orbit terms,
taken by the partition table's one signed-sum kernel, is retained as a
verification oracle.  They must agree everywhere; the
test suite enforces this on full weight saturations.
"""

from __future__ import annotations

from math import prod
from operator import mul

from . import partition
from .errors import InternalInconsistencyError, NonDominantWeightError
from .rootsys import RootSystem, Weight, vadd, vscale, vsub
from .weyl import dot_terms


class WeightMultiplicities:
    """Freudenthal table of all weight multiplicities of one module L(lam).

    Values are memoized per dominant representative, so sweeping a whole
    saturation costs one recursion pass.
    """

    def __init__(self, rs: RootSystem, lam):
        lam = tuple(lam)
        if not rs.is_dominant(lam):
            raise NonDominantWeightError(lam)
        self.rs = rs
        self.lam = lam
        self._memo: dict[Weight, int] = {lam: 1}
        self._lam_shift = vadd(lam, rs.rho)

    def at(self, mu) -> int:
        """Multiplicity of the weight mu in L(lam)."""
        mu = tuple(mu)
        rs = self.rs
        if rs.root_coords_int(vsub(self.lam, mu)) is None:
            return 0
        return self._value(mu)

    def _value(self, mu: Weight) -> int:
        # mu is in the root-lattice coset of lam here.
        rs = self.rs
        mu = rs.dominant_representative(mu)
        hit = self._memo.get(mu)
        if hit is not None:
            return hit
        diff = rs.root_coords_int(vsub(self.lam, mu))
        assert diff is not None
        if any(c < 0 for c in diff):
            self._memo[mu] = 0
            return 0
        # Freudenthal: ((lam+rho,lam+rho) - (mu+rho,mu+rho)) m(mu)
        #            = 2 sum_{alpha>0} sum_{j>=1} (mu + j alpha, alpha) m(mu + j alpha)
        numerator = 0
        for c_alpha, r_alpha in zip(rs.positive_roots, rs.positive_root_coords):
            j = 1
            remaining = diff
            while True:
                remaining = vsub(remaining, r_alpha)
                if any(c < 0 for c in remaining):
                    break
                nu = vadd(mu, vscale(j, c_alpha))
                m = self._value(nu)
                if m:
                    numerator += rs.inner(nu, r_alpha) * m
                j += 1
        denominator = rs.inner(vadd(vadd(mu, rs.rho), self._lam_shift), diff)
        assert denominator > 0
        value, rem = divmod(2 * numerator, denominator)
        assert rem == 0 and value >= 0, (
            f"Freudenthal recursion produced {2 * numerator}/{denominator} "
            f"at mu={mu}"
        )
        self._memo[mu] = value
        return value

    def saturation(self) -> tuple[Weight, ...]:
        """All weights of L(lam): W-orbits of the dominant weights below lam."""
        rs = self.rs
        weights: set[Weight] = set()
        for mu in rs.dominant_below(self.lam):
            weights.update(rs.weight_orbit(mu))
        return tuple(sorted(weights))


def freudenthal_mult(rs: RootSystem, lam, mu) -> int:
    """Multiplicity of mu in L(lam) by the Freudenthal recursion."""
    return WeightMultiplicities(rs, lam).at(mu)


def kostant_mult(
    rs: RootSystem,
    lam,
    mu,
    *,
    table: partition.PartitionTable | None = None,
) -> int:
    """Multiplicity of mu in L(lam) as the alternating partition sum over W.

    sum_w (-1)^w P(w.lam - mu; 1), over the contributing w that
    ``weyl.dot_terms`` walks to: the q = 1 value of the graded profile,
    summed from the same ``PartitionTable.signed_sum`` kernel the graded
    multiplicities use.  Agreement with freudenthal_mult is an invariant
    of the package.
    """
    lam, mu = tuple(lam), tuple(mu)
    if not rs.is_dominant(lam):
        raise NonDominantWeightError(lam)
    if table is None:
        table = partition.PartitionTable(rs)
    total = sum(table.signed_sum(dot_terms(rs, lam, mu)).values())
    if total < 0:
        raise InternalInconsistencyError(
            f"Kostant sum for lam={lam}, mu={mu} is negative: {total}"
        )
    return total


def weyl_dim(rs: RootSystem, lam) -> int:
    """Dimension of L(lam): product over positive roots of
    (lam + rho, alpha) / (rho, alpha), evaluated exactly as one integer
    product divided by another (the denominator fixed by ``build``)."""
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise NonDominantWeightError(lam)
    shifted = vadd(lam, rs.rho)
    num = prod(sum(map(mul, row, shifted)) for row in rs.pairing_rows)
    result, rem = divmod(num, rs.rho_pairing_product)
    assert rem == 0 and result > 0
    return result
