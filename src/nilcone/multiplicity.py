"""Weight multiplicities of irreducible highest-weight modules.

Two independent routes are kept side by side: Freudenthal's recursion
(``WeightMultiplicities.at``, on one domain per module) is the
production path; the alternating Kostant sum over the dot-orbit terms
(``kostant_mult``), taken by the partition table's one kernel,
``packed_sums``, is the second opinion of ``mult --check`` and
``tilting-example --check``.  They must agree everywhere; the test suite
checks them on every weight of the modules it sweeps.  ``weyl_dims``
gives the dimensions of a batch of modules at once; ``weyl_dim`` is its
one-weight case.
"""

from operator import mul

from . import partition
from .errors import InternalInconsistencyError, NonDominantWeightError
from .rootsys import RootSystem, Weight, pair_columns, vadd
from .weyl import dot_terms


class WeightMultiplicities:
    """Freudenthal table of all weight multiplicities of one module L(lam).

    The domain, the dominant weights below lam, is found once by
    ``dominant_below``, which gives each nu in it with the root
    coordinates of lam - nu, in domain order.  The table is filled over
    the whole domain when it is built, in the reverse of that order,
    shallowest first: Freudenthal's formula at nu reads only
    representatives above nu and strictly shallower, so each is in place
    before it is needed, with no recursion however far the weight is
    below lam.  So the table is complete once built, and ``at`` looks up
    the dominant representative.  A lam or mu without rank
    coordinates raises ValueError, and a lam that is not dominant
    NonDominantWeightError.
    """

    def __init__(self, rs: RootSystem, lam):
        self.rs = rs
        self.lam = lam = rs.as_weight(lam)
        self._memo: dict[Weight, int] = {lam: 1}
        self._lam_shift = vadd(lam, rs.rho)
        # {nu: root coordinates of lam - nu}, read from lam, the shallowest
        for nu, diff in reversed(rs.dominant_below(lam).items()):
            if nu != lam:
                self._memo[nu] = self._freudenthal(nu, diff)

    def at(self, mu) -> int:
        """Multiplicity of the weight mu in L(lam): 0 unless the dominant
        representative of mu is below lam."""
        return self._memo.get(self.rs.dominant_representative(mu), 0)

    def _freudenthal(self, mu: Weight, diff) -> int:
        """m(mu) for a dominant mu below lam, from the memoized values above
        it; diff is the root coordinates of lam - mu.  A quotient that is
        not a nonnegative integer raises InternalInconsistencyError."""
        rs, memo, dominant = self.rs, self._memo, self.rs.dominant_representative
        # Freudenthal: ((lam+rho,lam+rho) - (mu+rho,mu+rho)) m(mu)
        #            = 2 sum_{alpha>0} sum_{j>=1} (mu + j alpha, alpha) m(mu + j alpha)
        numerator = 0
        for c_alpha, r_alpha, row in zip(rs.positive_roots, rs.positive_root_coords,
                                         rs.pairing_rows):
            # mu + j alpha is below lam for j <= steps; (mu + j alpha, alpha)
            # is linear in j.
            steps = min(d // r for d, r in zip(diff, r_alpha) if r)
            if not steps:
                continue
            base, slope = sum(map(mul, row, mu)), sum(map(mul, row, c_alpha))
            nu = mu
            for j in range(1, steps + 1):
                nu = vadd(nu, c_alpha)
                m = memo.get(dominant(nu), 0)
                if m:
                    numerator += (base + j * slope) * m
        denominator = rs.inner(vadd(vadd(mu, rs.rho), self._lam_shift), diff)
        if denominator > 0:
            value, rem = divmod(2 * numerator, denominator)
            if not rem and value >= 0:
                return value
        raise InternalInconsistencyError(
            f"Freudenthal's formula produced {2 * numerator}/{denominator} "
            f"at mu={mu}"
        )


def kostant_mult(rs: RootSystem, lam, mu) -> int:
    """Multiplicity of mu in L(lam) as the alternating partition sum over W.

    sum_w (-1)^w P(w.lam - mu; 1), over the contributing w that
    ``weyl.dot_terms`` walks to: the q = 1 value of the graded profile,
    from the same ``PartitionTable.packed_sums`` kernel the graded
    multiplicities use, on a table of its own, so no two calls share
    values.  Its digits are read balanced, since a non-dominant mu can
    make one negative; a negative total raises InternalInconsistencyError.
    Agreement with ``WeightMultiplicities.at`` is an invariant of the
    package.  A lam that is not dominant raises ``NonDominantWeightError``
    (``dot_terms``).
    """
    lam, mu = tuple(lam), tuple(mu)
    terms = dot_terms(rs, lam, mu)
    packing, [value] = partition.PartitionTable(rs).packed_sums([terms])
    total = sum(packing.balanced(value, packing.height).values())
    if total < 0:
        raise InternalInconsistencyError(
            f"Kostant sum for lam={lam}, mu={mu} is negative: {total}"
        )
    return total


def weyl_dims(rs: RootSystem, lams) -> list[int]:
    """[dim L(lam) for lam in lams]: the product over positive roots of
    (lam + rho, alpha) / (rho, alpha), evaluated exactly as one integer
    product divided by another (the denominator fixed by ``build``).

    The batch is taken as columns of lam + rho, and each pairing row
    multiplies into every numerator at once.  The first lam without rank
    coordinates raises ValueError, and then the first that is not
    dominant ``NonDominantWeightError``; a quotient that is not a positive
    integer raises InternalInconsistencyError.
    """
    lams = list(map(rs.as_weight, lams))
    if not lams:
        return []
    columns = list(zip(*lams))
    if min(map(min, columns)) < 0:
        raise NonDominantWeightError(
            next(lam for lam in lams if not rs.is_dominant(lam)))
    shifted = [[x + r for x in column] for r, column in zip(rs.rho, columns)]
    nums = [1] * len(lams)
    for row in rs.pairing_rows:
        nums = list(map(mul, nums, pair_columns(row, shifted)))
    den = rs.rho_pairing_product
    for lam, num in zip(lams, nums):
        if num <= 0 or num % den:
            raise InternalInconsistencyError(
                f"Weyl's dimension formula produced {num}/{den} at lam={lam}")
    return [num // den for num in nums]


def weyl_dim(rs: RootSystem, lam) -> int:
    """Dimension of L(lam), the one-weight case of ``weyl_dims``."""
    return weyl_dims(rs, [lam])[0]
