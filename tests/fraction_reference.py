"""Rational-arithmetic versions of the integer steps of ``rootsys.build``.

``build`` takes the symmetrizer from a table of the families, the
adjugate of the transposed Cartan matrix by fraction-free elimination, and
the dominant short root by comparing coroot heights over a common
denominator.  The functions here get the same three things with
``fractions.Fraction``: the symmetrizer from the Cartan matrix, by ratios
along the Dynkin diagram, the adjugate by ordinary Gauss-Jordan
elimination, and the dominant short root by direct rational comparison,
so the tests can check ``build``'s versions against them.
"""

from fractions import Fraction
from math import gcd

from root_lattice import root_norm2


def symmetrizer(cartan) -> tuple[int, ...]:
    """Positive integers d with d_j*cartan[i][j] symmetric, short roots d=1."""
    rank = len(cartan)
    d: list[Fraction | None] = [None] * rank
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                stack.append(j)
    assert all(x is not None and x > 0 for x in d), "Dynkin diagram not connected"
    denom_lcm = 1
    for x in d:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in d]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def adjugate_of_transpose(cartan) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adjugate, det) of cartan^T, by Gauss-Jordan elimination over Q."""
    n = len(cartan)
    m = [[Fraction(cartan[j][i]) for j in range(n)] for i in range(n)]  # cartan^T
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            det = -det
        det *= m[col][col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    assert det.denominator == 1 and det > 0
    det_i = int(det)
    adj = []
    for row in inv:
        scaled = [x * det_i for x in row]
        assert all(x.denominator == 1 for x in scaled)
        adj.append(tuple(int(x) for x in scaled))
    return tuple(adj), det_i


def dual_of_highest_coroot(rs):
    """Root coordinates of the positive root whose coroot
    beta^vee = sum_j (2 r_j d_j / (beta, beta)) alpha_j^vee has the
    largest height, as a rational; None if that root is not unique."""
    d = rs.symmetrizer
    heights = [Fraction(2 * sum(rj * dj for rj, dj in zip(r, d)), root_norm2(rs, r))
               for r in rs.positive_root_coords]
    top = max(heights)
    tops = [r for r, h in zip(rs.positive_root_coords, heights) if h == top]
    return tops[0] if len(tops) == 1 else None
