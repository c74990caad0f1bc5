"""Weyl-group enumeration and height-bounded weight lists: test oracles.

The package never enumerates W: every alternating sum runs over the terms
of ``nilcone.weyl.dot_terms``.  The explicit group kept here (dense
integer matrices on fw coordinates, a breadth-first closure under simple
reflections, lengths as BFS depths) shares no code with that walk, so the
tests can check the walk, the dot action and the classical orders
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from nilcone.errors import NilconeError
from nilcone.rootsys import RootSystem, RootSystemId, Weight, vadd, vsub

DEFAULT_CAP = 3_000_000


class WeylCapExceededError(NilconeError):
    """Weyl group enumeration refused: the group order exceeds the cap."""

    def __init__(self, family: str, rank: int, cap: int, reached: int):
        self.family = family
        self.rank = rank
        self.cap = cap
        self.reached = reached
        super().__init__(
            f"Weyl group of {family}_{rank} exceeds cap {cap} "
            f"(count reached: {reached})"
        )


def weyl_group_order(family: str, rank: int) -> int:
    """Classical order of the Weyl group for the type."""
    l = rank
    if family == "A":
        return factorial(l + 1)
    if family in ("B", "C"):
        return 2**l * factorial(l)
    if family == "D":
        return 2 ** (l - 1) * factorial(l)
    if family == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[l]
    if family == "F":
        return 1152
    return 12  # G_2


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

    Refuses upfront when the classical group order exceeds the cap (so
    E_8 fails fast instead of after millions of elements); a dynamic guard
    inside the closure reports the partial count as a safety net.
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


def dominant_up_to_height(rs: RootSystem, max_height) -> tuple[Weight, ...]:
    """All dominant weights of height <= max_height, sorted."""
    fw_heights = [
        rs.height(tuple(int(i == j) for j in range(rs.rank)))
        for i in range(rs.rank)
    ]
    found = []
    coords = [0] * rs.rank

    def rec(j, budget):
        if j == rs.rank:
            found.append(tuple(coords))
            return
        c = 0
        while c * fw_heights[j] <= budget:
            coords[j] = c
            rec(j + 1, budget - c * fw_heights[j])
            c += 1
        coords[j] = 0

    rec(0, Fraction(max_height))
    return tuple(sorted(found, key=lambda m: (rs.height(m), m)))
