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
integers precisely on the root lattice.  ``depths`` gives them for a
batch of weights below one top, those that are nonnegative integers, so
it is also the one test of the dominance order.
All arithmetic is exact, never floats: ``build`` works in integers only
(a fraction-free adjugate).  The symmetrizer is family data, which
``build`` checks against the Cartan matrix.

The symmetric bilinear form is normalised so that short roots have
squared length 2 (``inner`` values on the weight lattice are integers).

``RootSystemId`` and ``RootSystem`` are plain tuples, subclasses of
``collections.namedtuple`` bases with empty ``__slots__``: immutable,
compared and hashed by value.  They are not ``typing.NamedTuple``
classes, which build the same ``namedtuple`` and then read a type
annotation for every field, work that every import would repeat.
"""

from collections import namedtuple
from math import lcm, prod
from operator import add, mul, sub

from .errors import InadmissibleTypeError, NonDominantWeightError

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


def _symmetrizer(family: str, rank: int) -> tuple[int, ...]:
    """d_i = (alpha_i, alpha_i) / 2 in Bourbaki numbering: 1 on the short
    simple roots, and on every simple root of a simply laced type."""
    if family == "B":
        return (2,) * (rank - 1) + (1,)
    if family == "C":
        return (1,) * (rank - 1) + (2,)
    if family == "F":
        return (2, 2, 1, 1)
    if family == "G":
        return (1, 3)
    return (1,) * rank


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

    # -- predicates and measures ----------------------------------------

    def as_weight(self, w) -> Weight:
        """w as a tuple; ValueError unless it has rank coordinates."""
        w = tuple(w)
        if len(w) != self.rank:
            raise ValueError(f"weight {w} does not have {self.rank} coordinates")
        return w

    def is_dominant(self, w) -> bool:
        """Whether every coordinate of w is >= 0; ValueError unless w has
        rank coordinates."""
        return min(self.as_weight(w)) >= 0

    # -- bilinear form ---------------------------------------------------

    def inner(self, w, r) -> int:
        """(w, beta) for a weight w (fw coords) and beta = sum r_j alpha_j.

        Integer-valued on weight-lattice w and integral r; short roots
        have squared length 2 in this normalisation.  ValueError unless
        w and r have rank coordinates.
        """
        w, r = self.as_weight(w), self.as_weight(r)
        return sum(a * b * c for a, b, c in zip(r, self.symmetrizer, w))

    # -- reflections -----------------------------------------------------

    def dominant_representative(self, w) -> Weight:
        """The unique dominant weight in the W-orbit of w (plain action);
        ValueError unless w has rank coordinates."""
        cur = self.as_weight(w)
        while (c := min(cur)) < 0:  # s_i at a c = cur[i] < 0
            cur = tuple([a - c * b for a, b in zip(cur, self.cartan[cur.index(c)])])
        return cur

    # -- weight sweeps ----------------------------------------------------

    def dominant_below(self, lam) -> dict[Weight, RootVector]:
        """{mu: root coordinates of lam - mu} for the dominant mu with lam -
        mu a nonnegative integer root sum, in ``depths`` order: the dominant
        members of the root-lattice coset of lam below it, the sweep domain
        for graded tables.  ValueError for a lam without rank coordinates,
        and NonDominantWeightError for a lam that is not dominant.

        Every dominant weight below a dominant top is reached from it by
        subtracting one positive root at a time without leaving the
        dominant cone (Stembridge, Adv. Math. 136, 1998), so a search down
        from lam, in any order, visits the domain at N steps per weight,
        and ``depths`` orders it.
        """
        lam = self.as_weight(lam)
        if not self.is_dominant(lam):
            raise NonDominantWeightError(lam)
        stack, seen = [lam], {lam}
        while stack:
            mu = stack.pop()
            for alpha in self.positive_roots:
                nu = tuple(map(sub, mu, alpha))
                if min(nu) >= 0 and nu not in seen:
                    seen.add(nu)
                    stack.append(nu)
        return self.depths(lam, seen)

    def depths(self, top, lams) -> dict[Weight, RootVector]:
        """{lam: root coordinates of top - lam} for each lam of lams with
        top - lam a nonnegative integer root sum, deepest first and then by
        fw coordinates (the domain order); ValueError unless top and every
        lam have rank coordinates.

        The root coordinates of top - lam are fw_to_root_adj (top - lam) /
        det, taken one adjugate row at a time over columns of top - lam: a
        lam is kept when every row gives a nonnegative multiple of det.
        """
        top, lams = self.as_weight(top), list(map(self.as_weight, lams))
        columns = [[t - lam[i] for lam in lams] for i, t in enumerate(top)]
        det = self.fw_to_root_det
        rows = [pair_columns(row, columns) for row in self.fw_to_root_adj]
        kept = sorted((-sum(r), lam, r) for lam, r in zip(lams, zip(*rows))
                      if min(r) >= 0 and not any(x % det for x in r))
        return {lam: tuple(x // det for x in r) for _, lam, r in kept}

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
    d = _symmetrizer(family, rank)
    assert all(d[j] * cartan[i][j] == d[i] * cartan[j][i]
               for i in range(rank) for j in range(rank))
    adj, det = _adjugate_of_transpose(cartan)

    # Reflection closure of the simple roots inside Phi+: fw maps each
    # root's root coords to its fw coords.  s_i takes r to r - c_i alpha_i
    # with c_i its i-th fw coordinate, which shifts its fw coords by c_i
    # times a Cartan row.  It permutes Phi+ less alpha_i (Humphreys,
    # Lie Algebras, 10.2 Lemma B); of the positive roots with c_i != 0,
    # alpha_i alone has r_i < c_i.
    fw = {tuple(int(i == j) for j in range(rank)): cartan[i] for i in range(rank)}
    frontier = list(fw.items())
    while frontier:
        nxt = []
        for r, c in frontier:
            for i, ci in enumerate(c):
                if ci and r[i] >= ci:
                    r2 = list(r)
                    r2[i] -= ci
                    r2 = tuple(r2)
                    if r2 not in fw:
                        c2 = tuple([a - ci * b for a, b in zip(c, cartan[i])])
                        fw[r2] = c2
                        nxt.append((r2, c2))
        frontier = nxt

    positives = sorted(fw, key=lambda r: (sum(r), r))
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
