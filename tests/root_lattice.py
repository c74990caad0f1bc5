"""Rational root-lattice helpers that only the tests need.

The package works in integers alone: ``RootSystem.root_coords_int`` gives
root-basis coordinates on the root lattice and None off it, and
``RootSystem.inner`` the bilinear form.  These helpers extend that to any
weight, with ``fractions.Fraction``, map root coordinates back to fw
coordinates, and give the squared lengths and coroot pairings the tests
check the root data with.
"""

from fractions import Fraction
from operator import mul


def vneg(u):
    return tuple(-a for a in u)


def to_root_basis(rs, w) -> tuple[Fraction, ...]:
    """Root-basis coordinates of a weight, as exact rationals."""
    det = rs.fw_to_root_det
    return tuple(Fraction(sum(map(mul, row, w)), det) for row in rs.fw_to_root_adj)


def from_root_basis(rs, r):
    """fw coordinates of sum_j r_j alpha_j."""
    return tuple(sum(r[j] * rs.cartan[j][i] for j in range(rs.rank))
                 for i in range(rs.rank))


def height(rs, w) -> Fraction:
    """Sum of root-basis coordinates (rational for general weights)."""
    return sum(to_root_basis(rs, w), Fraction(0))


def root_norm2(rs, r) -> int:
    """Squared length (beta, beta) of a root-lattice vector."""
    return rs.inner(from_root_basis(rs, r), r)


def coroot_pairing(rs, w, r) -> int:
    """<w, beta^vee> = 2 (w, beta) / (beta, beta) for a root beta."""
    n2 = root_norm2(rs, r)
    num = 2 * rs.inner(w, r)
    assert num % n2 == 0, "coroot pairing of a weight must be integral"
    return num // n2
