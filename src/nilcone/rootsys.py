"""Irreducible root systems of types A-G with exact combinatorial data.

Coordinate conventions
----------------------
Weights are tuples of integers in the fundamental-weight basis ("fw
coordinates"): ``(c_1, ..., c_l)`` stands for ``sum_i c_i omega_i``, and
``c_i`` equals the pairing with the i-th simple coroot.  Simple roots are
numbered as in Bourbaki.  The Cartan matrix is stored with
``cartan[i][j] = <alpha_i, alpha_j^vee>``, so row ``i`` is exactly the fw
coordinate vector of ``alpha_i`` and the fw coordinates of a vector with
root-basis coordinates ``r`` are ``cartan^T r``.

Root-basis coordinates of a general weight are exact rationals; they are
integers precisely on the root lattice, where ``root_coords_int`` gives
them.  All arithmetic is exact, never floats: ``build`` works in
integers only (a fraction-free adjugate, an integer symmetrizer).

The symmetric bilinear form is normalised so that short roots have
squared length 2 (``inner`` values on the weight lattice are integers).

``RootSystemId`` and ``RootSystem`` are plain tuples, subclasses of
``collections.namedtuple`` bases with empty ``__slots__``: immutable,
compared and hashed by value.  They are not ``typing.NamedTuple``
classes, whose field annotations, strings under ``from __future__ import
annotations``, each cost a ``compile`` call at every import: about half
a millisecond of every command.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm, prod
from operator import add, mul, sub

from .errors import InadmissibleTypeError

Weight = tuple[int, ...]
RootVector = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def admissible(family: str, rank: int) -> bool:
    """Whether (family, rank) names an irreducible root system."""
    if family not in _RANK_RANGE or not isinstance(rank, int):
        return False
    lo, hi = _RANK_RANGE[family]
    return rank >= lo and (hi is None or rank <= hi)


def positive_root_count(family: str, rank: int) -> int:
    """Classical number of positive roots for the type."""
    l = rank
    if family == "A":
        return l * (l + 1) // 2
    if family in ("B", "C"):
        return l * l
    if family == "D":
        return l * (l - 1)
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[l]
    if family == "F":
        return 24
    return 6  # G_2


def coxeter_number(family: str, rank: int) -> int:
    """Classical Coxeter number h for the type."""
    l = rank
    if family == "A":
        return l + 1
    if family in ("B", "C"):
        return 2 * l
    if family == "D":
        return 2 * l - 2
    if family == "E":
        return {6: 12, 7: 18, 8: 30}[l]
    if family == "F":
        return 12
    return 6  # G_2


def dual_coxeter_number_of_dual(family: str, rank: int) -> int:
    """Classical dual Coxeter number of the dual root system R^vee.

    B_l and C_l swap under duality; every other type is self-dual.  The
    highest root of R^vee is theta_s^vee, so the length 2 h^vee(R^vee) - 3
    of its reflection is that of s_theta_s: k = h^vee(R^vee) - 1.
    """
    l = rank
    if family in ("A", "B"):
        return l + 1
    if family == "C":
        return 2 * l - 1
    if family == "D":
        return 2 * l - 2
    if family == "E":
        return {6: 12, 7: 18, 8: 30}[l]
    if family == "F":
        return 9
    return 4  # G_2


def exponents(rs) -> list[int]:
    """The exponents of the Weyl group, sorted, read off the root system
    alone: the partition dual to the number of positive roots of each
    height (Kostant 1959)."""
    by_height: dict[int, int] = {}
    for r in rs.positive_root_coords:
        by_height[sum(r)] = by_height.get(sum(r), 0) + 1
    counts = [by_height[h] for h in sorted(by_height)]
    return sorted(sum(1 for c in counts if c >= j) for j in range(1, rs.rank + 1))


# -- small exact vector helpers ---------------------------------------------

def vadd(u, v):
    return tuple(map(add, u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def pair_columns(row, columns) -> list[int]:
    """sum_j row_j columns[j], entry by entry: the linear form row at
    every weight of a batch held as columns, one per coordinate.  The
    row has a nonzero entry."""
    total = None
    for c, column in zip(row, columns):
        if c:
            term = column if c == 1 else [c * x for x in column]
            total = term if total is None else list(map(add, total, term))
    return total


def _cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Bourbaki Cartan matrix, rows = simple roots in fw coordinates."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if family in ("A", "B", "C"):
        for i in range(rank - 2):
            link(i, i + 1)
        if rank >= 2:
            if family == "A":
                link(rank - 2, rank - 1)
            elif family == "B":     # alpha_l short
                link(rank - 2, rank - 1, aij=-2, aji=-1)
            else:                   # C: alpha_l long
                link(rank - 2, rank - 1, aij=-1, aji=-2)
    elif family == "D":
        for i in range(rank - 3):
            link(i, i + 1)
        link(rank - 3, rank - 2)
        link(rank - 3, rank - 1)
    elif family == "E":
        # Bourbaki: chain 1-3-4-5-6(-7-8), node 2 hangs off node 4.
        for i, j in [(0, 2), (2, 3), (3, 4), (4, 5)]:
            link(i, j)
        link(1, 3)
        for i in range(5, rank - 1):
            link(i, i + 1)
    elif family == "F":
        link(0, 1)
        link(1, 2, aij=-2, aji=-1)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        link(2, 3)
    else:                           # G_2: alpha_1 short, alpha_2 long
        link(0, 1, aij=-1, aji=-3)
    return tuple(tuple(row) for row in a)


def _symmetrizer(cartan) -> tuple[int, ...]:
    """Positive integers d with d_j*cartan[i][j] symmetric, short roots d=1."""
    rank = len(cartan)
    d = [0] * rank
    d[0] = 1
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and not d[j]:
                # d_j = d_i * cartan[j][i] / cartan[i][j]; when that is not
                # an integer, scale every d fixed so far by the divisor.
                num, den = d[i] * cartan[j][i], cartan[i][j]
                if num % den:
                    d = [x * abs(den) for x in d]
                    num *= abs(den)
                d[j] = num // den
                stack.append(j)
    assert all(x > 0 for x in d), "Dynkin diagram not connected"
    g = gcd(*d)
    ints = [x // g for x in d]
    for i in range(rank):
        for j in range(rank):
            assert ints[j] * cartan[i][j] == ints[i] * cartan[j][i]
    return tuple(ints)


def _adjugate_of_transpose(cartan) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adjugate, det) of cartan^T, so inv(cartan^T) = adjugate / det.

    Both are integral; det > 0 for every Cartan matrix.  Fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) on
    [cartan^T | I]: every division is exact, and the last pivot is det,
    which leaves det * I on the left and the adjugate on the right.  A
    Cartan matrix has positive leading principal minors, so no pivot is
    zero and no row is swapped.
    """
    n = len(cartan)
    m = [[cartan[j][i] for j in range(n)] + [int(i == j) for j in range(n)]
         for i in range(n)]  # [cartan^T | I]
    prev = 1
    for k in range(n):
        pivot, row = m[k][k], m[k]
        assert pivot > 0, "a leading principal minor of a Cartan matrix is positive"
        for r in range(n):
            if r != k:
                f = m[r][k]
                m[r] = [(pivot * x - f * y) // prev for x, y in zip(m[r], row)]
        prev = pivot
    det = prev
    assert all(m[i][i] == det for i in range(n))
    return tuple(tuple(row[n:]) for row in m), det


class RootSystemId(namedtuple("RootSystemId", ["family", "rank"])):  # str, int
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class RootSystem(namedtuple("RootSystem", [
    "id",                    # RootSystemId
    "cartan",                # tuple[Weight, ...]: row i is alpha_i
    "positive_roots",        # tuple[Weight, ...]
    "positive_root_coords",  # tuple[RootVector, ...]
    "rho",                   # Weight
    "theta_short",           # Weight
    "theta_long",            # Weight
    "theta_short_coords",    # RootVector
    "theta_long_coords",     # RootVector
    "symmetrizer",           # tuple[int, ...]
    "fw_to_root_adj",        # tuple[tuple[int, ...], ...]
    "fw_to_root_det",        # int
    # Per positive root alpha = sum r_j alpha_j, the row (d_j r_j)_j, so
    # (w, alpha) = sum_j row_j w_j; and the product of (rho, alpha).
    "pairing_rows",          # tuple[tuple[int, ...], ...]
    "rho_pairing_product",   # int
])):
    """Immutable combinatorial datum of an irreducible root system.

    Built via :func:`build`; safe to share across threads and processes.
    """

    __slots__ = ()

    @property
    def family(self) -> str:
        return self.id.family

    @property
    def rank(self) -> int:
        return self.id.rank

    # -- coordinate conversions ----------------------------------------

    def root_coords_int(self, w) -> RootVector | None:
        """Integer root-basis coordinates, or None if w is off the root lattice."""
        det = self.fw_to_root_det
        out = []
        for row in self.fw_to_root_adj:
            num = sum(map(mul, row, w))
            if num % det:
                return None
            out.append(num // det)
        return tuple(out)

    # -- predicates and measures ----------------------------------------

    def is_dominant(self, w) -> bool:
        return all(c >= 0 for c in w)

    def dominance_le(self, mu, lam) -> bool:
        """True iff lam - mu has nonnegative integer root-basis coordinates."""
        coords = self.root_coords_int(vsub(lam, mu))
        return coords is not None and min(coords) >= 0

    # -- bilinear form ---------------------------------------------------

    def inner(self, w, r) -> int:
        """(w, beta) for a weight w (fw coords) and beta = sum r_j alpha_j.

        Integer-valued on weight-lattice w and integral r; short roots
        have squared length 2 in this normalisation.
        """
        d = self.symmetrizer
        return sum(r[j] * d[j] * w[j] for j in range(self.rank))

    # -- reflections and orbits ------------------------------------------

    def simple_reflection(self, w, i: int) -> Weight:
        """s_i(w) = w - <w, alpha_i^vee> alpha_i, on fw coordinates."""
        c = w[i]
        if c == 0:
            return tuple(w)
        row = self.cartan[i]
        return tuple(w[j] - c * row[j] for j in range(self.rank))

    def dominant_representative(self, w) -> Weight:
        """The unique dominant weight in the W-orbit of w (plain action)."""
        cur = tuple(w)
        while True:
            for i, c in enumerate(cur):
                if c < 0:
                    cur = self.simple_reflection(cur, i)
                    break
            else:
                return cur

    def weight_orbit(self, w) -> tuple[Weight, ...]:
        """The full W-orbit of a weight, sorted, without enumerating W."""
        seen = {tuple(w)}
        frontier = [tuple(w)]
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(self.rank):
                    u = self.simple_reflection(v, i)
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return tuple(sorted(seen))

    # -- weight sweeps ----------------------------------------------------

    def dominant_below(self, lam) -> tuple[Weight, ...]:
        """Dominant weights mu with lam - mu a nonnegative integer root sum.

        These are exactly the dominant members of the root-lattice coset
        of lam under the dominance order, the sweep domain for graded
        tables.  Sorted by (height, fw coords); empty when lam is off the
        nonnegative root cone.

        Every dominant weight below a dominant top is reached from it by
        subtracting one positive root at a time without leaving the
        dominant cone (Stembridge, Adv. Math. 136, 1998), so a
        breadth-first search down from the dominant representative of lam
        visits the domain at N steps per weight.  Every weight below lam
        is below that representative, so filtering the search result by
        the dominance order handles a non-dominant lam; a dominant lam is
        its own representative and needs no filter.
        """
        lam = tuple(lam)
        top = self.dominant_representative(lam)
        roots = [(a, sum(r)) for a, r in zip(self.positive_roots,
                                             self.positive_root_coords)]
        depth = {top: 0}  # mu -> height(top - mu)
        frontier = [top]
        while frontier:
            nxt = []
            for mu in frontier:
                d = depth[mu]
                for alpha, h in roots:
                    nu = tuple(map(sub, mu, alpha))
                    if min(nu) >= 0 and nu not in depth:
                        depth[nu] = d + h
                        nxt.append(nu)
            frontier = nxt
        if top == lam:  # everything reached down from a dominant lam is below it
            found = list(depth)
        else:
            found = [mu for mu in depth if self.dominance_le(mu, lam)]
        return tuple(sorted(found, key=lambda m: (-depth[m], m)))

    # -- serialisation ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Root system datum in the documented JSON schema.

        Keys: family, rank, cartan, positive_roots (fw coords), rho,
        theta_short.
        """
        return {
            "family": self.family,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "positive_roots": [list(r) for r in self.positive_roots],
            "rho": list(self.rho),
            "theta_short": list(self.theta_short),
        }


def build(family: str, rank: int) -> RootSystem:
    """Construct the irreducible root system of the given type.

    Raises InadmissibleTypeError for pairs outside A_l (l>=1), B_l (l>=2),
    C_l (l>=2), D_l (l>=3), E_6..E_8, F_4, G_2.
    """
    if not admissible(family, rank):
        raise InadmissibleTypeError(family, rank)
    cartan = _cartan_matrix(family, rank)
    d = _symmetrizer(cartan)
    adj, det = _adjugate_of_transpose(cartan)

    # Reflection closure of the simple roots: fw maps each root's root
    # coords to its fw coords.  s_i changes root coordinate i by the i-th
    # fw coordinate and shifts fw coords by a Cartan row.
    fw = {tuple(int(i == j) for j in range(rank)): cartan[i] for i in range(rank)}
    frontier = list(fw.items())
    while frontier:
        nxt = []
        for r, c in frontier:
            for i in range(rank):
                ci = c[i]
                if ci == 0:
                    continue
                r2 = tuple(r[j] - ci * int(i == j) for j in range(rank))
                if r2 not in fw:
                    c2 = tuple(c[j] - ci * cartan[i][j] for j in range(rank))
                    fw[r2] = c2
                    nxt.append((r2, c2))
        frontier = nxt

    positives = sorted(
        (r for r in fw if all(x >= 0 for x in r)),
        key=lambda r: (sum(r), r),
    )
    assert 2 * len(positives) == len(fw)
    expected = positive_root_count(family, rank)
    assert len(positives) == expected, (
        f"{family}_{rank}: built {len(positives)} positive roots, "
        f"classical count is {expected}"
    )

    pos_fw = tuple(fw[r] for r in positives)

    rho = tuple([1] * rank)
    half_sum_doubled = [0] * rank
    for c in pos_fw:
        half_sum_doubled = [a + b for a, b in zip(half_sum_doubled, c)]
    assert tuple(x // 2 for x in half_sum_doubled) == rho
    assert all(x % 2 == 0 for x in half_sum_doubled)

    heights = [sum(r) for r in positives]
    h_max = max(heights)
    longest = [r for r, h in zip(positives, heights) if h == h_max]
    assert len(longest) == 1, "highest root must be unique"
    theta_long_coords = longest[0]
    theta_long = fw[theta_long_coords]
    assert all(c >= 0 for c in theta_long)
    assert h_max + 1 == coxeter_number(family, rank)

    norms = [sum(a * b * c for a, b, c in zip(r, d, fw[r])) for r in positives]
    short_norm = min(norms)
    assert short_norm == 2, "short roots are normalised to squared length 2"
    shorts = [r for r, n in zip(positives, norms) if n == short_norm]
    dominant_shorts = [r for r in shorts if all(c >= 0 for c in fw[r])]
    assert len(dominant_shorts) == 1, "dominant short root must be unique"
    theta_short_coords = dominant_shorts[0]
    theta_short = fw[theta_short_coords]

    # The dominant short root is dual to the highest coroot: the coroot
    # beta^vee = sum_j (2 r_j d_j / (beta,beta)) alpha_j^vee of theta_short
    # must have strictly maximal height among all coroots.  Heights are
    # compared as integers over the common denominator of the norms.
    common = lcm(*norms)
    co_heights = [2 * sum(map(mul, r, d)) * (common // n)
                  for r, n in zip(positives, norms)]
    top = max(co_heights)
    top_roots = [r for r, ch in zip(positives, co_heights) if ch == top]
    assert top_roots == [theta_short_coords], (
        "dominant short root must agree with the dual of the highest coroot"
    )

    pairing_rows = tuple(tuple(rj * dj for rj, dj in zip(r, d)) for r in positives)
    return RootSystem(
        id=RootSystemId(family, rank),
        cartan=cartan,
        positive_roots=pos_fw,
        positive_root_coords=tuple(positives),
        rho=rho,
        theta_short=theta_short,
        theta_long=theta_long,
        theta_short_coords=theta_short_coords,
        theta_long_coords=theta_long_coords,
        symmetrizer=d,
        fw_to_root_adj=adj,
        fw_to_root_det=det,
        pairing_rows=pairing_rows,
        rho_pairing_product=prod(sum(map(mul, row, rho)) for row in pairing_rows),
    )
