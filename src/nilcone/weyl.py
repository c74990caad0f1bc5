"""The alternating-sum term set, dot action, and dominant resolution.

Every graded multiplicity and every Kostant multiplicity is a sum
sum_w (-1)^w P(w.lam - mu) in which only the w with w.lam - mu in the
nonnegative root cone contribute.  ``dot_terms`` finds exactly those w by
a pruned walk up the weak order from the identity, so no operation of the
package enumerates W and every type through E_8 is reachable.  The other
operations needed for arbitrarily large types - the reflection length of
s_theta and the dominant-chamber resolution behind Euler characteristics
of induced modules - avoid enumeration as well.

``enumerate_group`` (dense integer matrices on fw coordinates, a
breadth-first closure under simple reflections, lengths as BFS depths)
remains as an independent oracle for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WeylCapExceededError
from .rootsys import (
    RootSystem,
    RootSystemId,
    RootVector,
    Weight,
    vadd,
    vsub,
    weyl_group_order,
)

DEFAULT_CAP = 3_000_000


@dataclass(frozen=True)
class WeylElement:
    """A group element as an exact integer matrix on fw coordinates."""

    matrix: tuple[tuple[int, ...], ...]
    length: int

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def apply(self, w) -> Weight:
        return tuple(
            sum(row[j] * w[j] for j in range(len(row))) for row in self.matrix
        )


@dataclass(frozen=True)
class WeylGroup:
    id: RootSystemId
    elements: tuple[WeylElement, ...]
    order: int
    cap: int

    def longest_element(self) -> WeylElement:
        return max(self.elements, key=lambda e: e.length)


def identity_matrix(rank: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


def simple_reflection_matrix(rs: RootSystem, i: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of s_i on fw coordinates: c -> c - c_i * cartan[i]."""
    rank = rs.rank
    return tuple(
        tuple(int(k == j) - (rs.cartan[i][k] if j == i else 0) for j in range(rank))
        for k in range(rank)
    )


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def det_int(matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def inversion_count(rs: RootSystem, matrix) -> int:
    """Number of positive roots the matrix sends negative: the length."""
    positive = set(rs.positive_roots)
    rank = rs.rank
    count = 0
    for c_alpha in rs.positive_roots:
        image = tuple(
            sum(matrix[i][j] * c_alpha[j] for j in range(rank)) for i in range(rank)
        )
        if image not in positive:
            count += 1
    return count


def enumerate_group(rs: RootSystem, cap: int = DEFAULT_CAP) -> WeylGroup:
    """Enumerate W by breadth-first closure under simple reflections.

    A test oracle: the package itself never enumerates W.  Refuses
    upfront when the classical group order exceeds the cap (so E_8 fails
    fast instead of after millions of elements); a dynamic guard inside
    the closure reports the partial count as a safety net.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    order = weyl_group_order(rs.family, rs.rank)
    if order > cap:
        raise WeylCapExceededError(rs.family, rs.rank, cap, reached=0)

    gens = [simple_reflection_matrix(rs, i) for i in range(rs.rank)]
    ident = identity_matrix(rs.rank)
    lengths = {ident: 0}
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for m in frontier:
            for g in gens:
                m2 = _mat_mul(m, g)
                if m2 not in lengths:
                    lengths[m2] = depth
                    nxt.append(m2)
                    if len(lengths) > cap:
                        raise WeylCapExceededError(
                            rs.family, rs.rank, cap, reached=len(lengths)
                        )
        frontier = nxt
    assert len(lengths) == order, (
        f"closure found {len(lengths)} elements, classical order is {order}"
    )
    if rs.rank <= 4:
        # Cheap enough to verify exhaustively: BFS depth is the length.
        for m, l in lengths.items():
            assert inversion_count(rs, m) == l
    elements = tuple(
        WeylElement(matrix=m, length=l)
        for m, l in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    )
    return WeylGroup(id=rs.id, elements=elements, order=order, cap=cap)


def dot_action(rs: RootSystem, w: WeylElement, lam) -> Weight:
    """w . lam = w(lam + rho) - rho, exactly on fw coordinates."""
    return vsub(w.apply(vadd(lam, rs.rho)), rs.rho)


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
    (the sum changes by the sign of that resolution); a singular lam + rho
    makes the whole sum cancel, and the list is empty, as it is when
    lam - mu is off the root lattice or no w contributes.
    """
    resolved = euler_induced(rs, lam)
    if resolved is None:
        return []
    sign, lam = resolved
    r = rs.root_coords_int(vsub(lam, mu))
    if r is None or any(c < 0 for c in r):
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
                v2 = tuple(a - c * b for a, b in zip(v, cartan[i]))
                if v2 in seen:
                    continue
                seen.add(v2)
                r2 = r[:i] + (r[i] - c,) + r[i + 1:]
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
