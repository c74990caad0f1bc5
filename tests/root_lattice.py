"""Rational root-lattice helpers that only the tests need.

The package works in integers alone: ``RootSystem.depths`` gives the
root-basis coordinates of top - lam for a batch of lam, those that are
nonnegative integers, and so tests dominance, and ``RootSystem.inner``
gives the bilinear form.  These helpers give the coordinates of any
weight, with ``fractions.Fraction``, the tests' reference for
``depths``, map root coordinates back to fw coordinates, test dominance
one pair of weights at a time, and give the squared lengths and coroot
pairings the tests check the root data with, and skew root data so
that the package's checks of its theorems fire.
"""

from fractions import Fraction
from operator import mul


def vneg(u):
    return tuple(-a for a in u)


def to_root_basis(rs, w) -> tuple[Fraction, ...]:
    """Root-basis coordinates of a weight, as exact rationals."""
    det = rs.fw_to_root_det
    return tuple(Fraction(sum(map(mul, row, w)), det) for row in rs.fw_to_root_adj)


def dominance_le(rs, mu, lam) -> bool:
    """Whether lam - mu has nonnegative integer root-basis coordinates:
    the per-weight reference for the domain test of ``RootSystem.depths``."""
    diff = tuple(a - b for a, b in zip(lam, mu, strict=True))
    return all(x.denominator == 1 and x >= 0 for x in to_root_basis(rs, diff))


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


def skew_pairing(rs, i, j):
    """rs with pairing_rows[i][j] one too high: root data on which a
    theorem of the package fails, for the checks that must refuse it."""
    rows = [list(row) for row in rs.pairing_rows]
    rows[i][j] += 1
    return rs._replace(pairing_rows=tuple(map(tuple, rows)))
