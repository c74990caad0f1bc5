"""The alternating-sum term set and the reflection length of s_theta.

Every graded multiplicity and every Kostant multiplicity is a sum
sum_w (-1)^w P(w.lam - mu), for a dominant lam, in which only the w with
w.lam - mu in the nonnegative root cone contribute.  ``dot_terms`` finds
exactly those w by a pruned walk up the weak order from the identity,
so no operation of the package enumerates W and every type through E_8
is reachable.  The reflection length of s_theta avoids enumeration as
well, and so does the Hilbert series' fold (``graded.fold``), which
walks each point into the dominant chamber itself.  An explicit
enumeration of W, which shares no code with either walk, lives with
the tests as their oracle.
"""

from .errors import NonDominantWeightError
from .rootsys import RootSystem, RootVector, vadd


def dot_terms(rs: RootSystem, lam, mu) -> list[tuple[int, RootVector]]:
    """(sign, root coordinates of w.lam - mu) for every w keeping it >= 0.

    These are the only nonzero terms of sum_w (-1)^w P(w.lam - mu).  The
    walk starts at v = lam + rho and applies s_i only where c = v[i] > 0:
    an ascent, so the sign flips, and w.lam - mu drops by c * alpha_i.  A
    step that would make its alpha_i coordinate negative is pruned, since
    every later ascent only lowers the vector further; the contributing w
    form a lower ideal of the weak order, reached from the identity
    through contributing w alone.  lam + rho is regular, so its orbit is
    free and v identifies w.

    The identity's term is the root coordinates of lam - mu, from
    ``RootSystem.depths``; the list is empty when lam - mu is off the
    root lattice or the nonnegative root cone, where no w contributes.
    A lam that is not dominant raises NonDominantWeightError, and a lam
    or mu without rank coordinates ValueError.
    """
    lam, mu = rs.as_weight(lam), rs.as_weight(mu)
    if not rs.is_dominant(lam):
        raise NonDominantWeightError(lam)
    r = rs.depths(lam, [mu]).get(mu)
    if r is None:
        return []
    cartan = rs.cartan
    v = vadd(lam, rs.rho)
    seen = {v}
    terms = [(1, r)]
    frontier = [(v, r)]
    sign = 1
    while frontier:
        sign = -sign
        nxt = []
        for v, r in frontier:
            for i, c in enumerate(v):
                if c <= 0 or r[i] < c:
                    continue
                v2 = tuple([a - c * b for a, b in zip(v, cartan[i])])
                if v2 in seen:
                    continue
                seen.add(v2)
                r2 = list(r)
                r2[i] -= c
                r2 = tuple(r2)
                terms.append((sign, r2))
                nxt.append((v2, r2))
        frontier = nxt
    return terms


def reflection_length_theta(rs: RootSystem) -> int:
    """Length of the reflection in the dominant short root.

    Counted as the number of positive roots sent negative, so no group
    enumeration is needed and E_8 is immediate.  Always odd; the shift
    constant of the subregular formulas is (result + 1) / 2.
    """
    theta_r = rs.theta_short_coords
    count = 0
    for c_alpha, r_alpha in zip(rs.positive_roots, rs.positive_root_coords):
        # <alpha, theta^vee> = (alpha, theta) since theta is short.
        pairing = rs.inner(c_alpha, theta_r)
        if pairing == 0:
            continue
        image = tuple(a - pairing * t for a, t in zip(r_alpha, theta_r))
        if any(x < 0 for x in image):
            count += 1
    assert count % 2 == 1, "a reflection has odd length"
    return count


def shift_constant(rs: RootSystem) -> int:
    """The integer k with 2k - 1 = length of the reflection in theta."""
    return (reflection_length_theta(rs) + 1) // 2

