"""The alternating-sum term set and dominant resolution.

Every graded multiplicity and every Kostant multiplicity is a sum
sum_w (-1)^w P(w.lam - mu) in which only the w with w.lam - mu in the
nonnegative root cone contribute.  ``dot_terms`` finds exactly those w by
a pruned walk up the weak order from the identity, so no operation of the
package enumerates W and every type through E_8 is reachable.  The other
operations needed for arbitrarily large types - the reflection length of
s_theta and the dominant-chamber resolution behind Euler characteristics
of induced modules - avoid enumeration as well.  An explicit enumeration
of W, which shares no code with the walk, lives with the tests as their
oracle.
"""

from __future__ import annotations

from .rootsys import RootSystem, RootVector, Weight, vadd, vsub


def dot_terms(rs: RootSystem, lam, mu) -> list[tuple[int, RootVector]]:
    """(sign, root coordinates of w.lam - mu) for every w keeping it >= 0.

    These are the only nonzero terms of sum_w (-1)^w P(w.lam - mu).  For
    dominant lam the walk starts at v = lam + rho and applies s_i only
    where c = v[i] > 0: an ascent, so the sign flips, and w.lam - mu
    drops by c * alpha_i.  A step that would make its alpha_i coordinate
    negative is pruned, since every later ascent only lowers the vector
    further; the contributing w form a lower ideal of the weak order,
    reached from the identity through contributing w alone.  lam + rho is
    regular, so its orbit is free and v identifies w.

    A non-dominant lam is first resolved through the dominant chamber
    (the sum changes by the sign of that resolution, and a dominant lam
    is its own resolution, with sign 1); a singular lam + rho
    makes the whole sum cancel, and the list is empty, as it is when
    lam - mu is off the root lattice or no w contributes.  A lam or mu
    without rank coordinates raises ValueError.
    """
    if len(lam) != rs.rank or len(mu) != rs.rank:
        raise ValueError(f"lam {tuple(lam)} and mu {tuple(mu)} need "
                         f"{rs.rank} coordinates each")
    if min(lam) >= 0:
        sign = 1
    else:
        resolved = euler_induced(rs, lam)
        if resolved is None:
            return []
        sign, lam = resolved
    r = rs.root_coords_int(vsub(lam, mu))
    if r is None or min(r) < 0:
        return []
    cartan = rs.cartan
    v = vadd(lam, rs.rho)
    seen = {v}
    terms = [(sign, r)]
    frontier = [(v, r)]
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


def euler_induced(rs: RootSystem, mu) -> tuple[int, Weight] | None:
    """Resolve a weight through the dominant chamber for Euler characteristics.

    Returns None when mu + rho is singular (the Euler characteristic of
    the induced module vanishes); otherwise (sign, lam) where lam is the
    unique dominant weight with w(mu + rho) = lam + rho and sign is
    (-1)^length(w).
    """
    nu = list(vadd(mu, rs.rho))
    rank = rs.rank
    sign = 1
    while True:
        neg = None
        for i in range(rank):
            if nu[i] == 0:
                return None
            if nu[i] < 0 and neg is None:
                neg = i
        if neg is None:
            return sign, vsub(tuple(nu), rs.rho)
        c = nu[neg]
        row = rs.cartan[neg]
        for j in range(rank):
            nu[j] -= c * row[j]
        sign = -sign
