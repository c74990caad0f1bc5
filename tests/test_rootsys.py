"""Root system construction, conversions, and the type invariants."""

import itertools
from fractions import Fraction

import pytest

from nilcone import InadmissibleTypeError, build
from nilcone.rootsys import (
    _adjugate_of_transpose,
    _symmetrizer,
    admissible,
    coxeter_number,
    positive_root_count,
    vadd,
    vscale,
    vsub,
)
import fraction_reference
from root_lattice import (
    coroot_pairing,
    from_root_basis,
    height,
    root_norm2,
    to_root_basis,
    vneg,
)
from weyl_oracle import dominant_up_to_height

ALL_TYPES = (
    [("A", l) for l in range(1, 9)]
    + [("B", l) for l in range(2, 9)]
    + [("C", l) for l in range(2, 9)]
    + [("D", l) for l in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_build_all_types(family, rank):
    rs = build(family, rank)
    assert len(rs.positive_roots) == positive_root_count(family, rank)
    assert all(rs.cartan[i][i] == 2 for i in range(rank))
    assert all(
        rs.cartan[i][j] <= 0 for i in range(rank) for j in range(rank) if i != j
    )


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_integer_build_steps_match_the_rational_reference(family, rank):
    # build is integer-only; the same steps over Fraction must agree.
    rs = build(family, rank)
    assert len(ALL_TYPES) == 33
    assert rs.symmetrizer == _symmetrizer(rs.cartan) == \
        fraction_reference.symmetrizer(rs.cartan)
    adj, det = _adjugate_of_transpose(rs.cartan)
    assert (adj, det) == fraction_reference.adjugate_of_transpose(rs.cartan)
    assert (rs.fw_to_root_adj, rs.fw_to_root_det) == (adj, det)
    assert rs.theta_short_coords == fraction_reference.dual_of_highest_coroot(rs)
    assert rs.theta_short == from_root_basis(rs, rs.theta_short_coords)


@pytest.mark.parametrize(
    "family,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9),
                    ("F", 3), ("F", 5), ("G", 1), ("G", 3), ("H", 3)]
)
def test_inadmissible_types_rejected(family, rank):
    assert not admissible(family, rank)
    with pytest.raises((InadmissibleTypeError, KeyError, ValueError)) as exc:
        build(family, rank)
    assert family in str(exc.value)


def test_a1_forced_data():
    rs = build("A", 1)
    assert rs.positive_roots == ((2,),)
    assert rs.rho == (1,)
    assert rs.theta_short == rs.theta_long == (2,)  # alpha = 2*omega


def test_a2_positive_roots_from_reflection_closure():
    # Brute-force closure over the A_2 Cartan matrix gives exactly
    # alpha_1, alpha_2, alpha_1 + alpha_2.
    rs = build("A", 2)
    assert set(rs.positive_root_coords) == {(1, 0), (0, 1), (1, 1)}
    assert rs.theta_long == (1, 1)
    assert rs.theta_short == rs.theta_long


def test_b2_positive_roots():
    rs = build("B", 2)
    assert set(rs.positive_root_coords) == {(1, 0), (0, 1), (1, 1), (1, 2)}
    assert rs.theta_short_coords == (1, 1)
    assert rs.theta_long_coords == (1, 2)


def test_g2_positive_roots_and_two_lengths():
    rs = build("G", 2)
    assert set(rs.positive_root_coords) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)
    }
    assert rs.theta_short != rs.theta_long
    assert rs.theta_short_coords == (2, 1)
    assert rs.theta_long_coords == (3, 2)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_rho_two_ways(family, rank):
    rs = build(family, rank)
    total = (0,) * rank
    for c in rs.positive_roots:
        total = vadd(total, c)
    assert total == tuple(2 * x for x in rs.rho)
    assert rs.rho == (1,) * rank


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_highest_root_height_is_coxeter_minus_one(family, rank):
    rs = build(family, rank)
    assert sum(rs.theta_long_coords) + 1 == coxeter_number(family, rank)
    assert rs.is_dominant(rs.theta_long)
    assert rs.is_dominant(rs.theta_short)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_simple_reflections_permute_roots(family, rank):
    rs = build(family, rank)
    positive = set(rs.positive_roots)
    for alpha in rs.positive_roots:
        for i in range(rank):
            image = rs.simple_reflection(alpha, i)
            assert image in positive or image == vneg(rs.cartan[i])


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_positive_roots_closed_under_simple_addition(family, rank):
    rs = build(family, rank)
    all_roots = set(rs.positive_roots) | {vneg(c) for c in rs.positive_roots}
    positive = set(rs.positive_roots)
    for alpha in rs.positive_roots:
        for simple in rs.cartan:
            candidate = vadd(alpha, simple)
            if candidate in all_roots:
                assert candidate in positive


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_positive_roots_have_positive_height(family, rank):
    rs = build(family, rank)
    for r in rs.positive_root_coords:
        assert sum(r) >= 1
        assert all(x >= 0 for x in r)


def test_b2_c2_and_a3_d3_isomorphic_height_multisets():
    for (f1, r1), (f2, r2) in [(("B", 2), ("C", 2)), (("A", 3), ("D", 3))]:
        h1 = sorted(sum(r) for r in build(f1, r1).positive_root_coords)
        h2 = sorted(sum(r) for r in build(f2, r2).positive_root_coords)
        assert h1 == h2


def test_to_root_basis_a2_examples():
    rs = build("A", 2)
    assert to_root_basis(rs, (1, 1)) == (1, 1)
    assert to_root_basis(rs, (0, 0)) == (0, 0)
    assert to_root_basis(rs, (1, 0)) == (Fraction(2, 3), Fraction(1, 3))


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2), ("F", 4)])
def test_root_basis_round_trip(family, rank):
    rs = build(family, rank)
    # Exact on the whole weight lattice: applying cartan^T to the rational
    # root coordinates recovers the fw coordinates.
    samples = [
        tuple((i * 7 + j * 3 - 5) % 11 - 5 for j in range(rank)) for i in range(20)
    ]
    for w in samples:
        r = to_root_basis(rs, w)
        back = tuple(
            sum(r[j] * rs.cartan[j][i] for j in range(rank)) for i in range(rank)
        )
        assert back == w
    # and root_coords_int agrees with to_root_basis exactly on the lattice
    for r_alpha, c_alpha in zip(rs.positive_root_coords, rs.positive_roots):
        assert rs.root_coords_int(c_alpha) == r_alpha
        assert to_root_basis(rs, c_alpha) == r_alpha


def test_root_lattice_membership():
    rs = build("A", 2)
    assert rs.root_coords_int((1, 1)) == (1, 1)
    assert rs.root_coords_int((1, 0)) is None


def test_dominance_examples():
    rs = build("A", 2)
    assert rs.dominance_le((0, 0), (1, 1))            # 0 <= theta
    assert not rs.dominance_le((0, 3), (3, 0))        # 3w2 vs 3w1: coords (1,-1)
    assert rs.dominance_le((3, 0), (3, 0))            # reflexive
    assert not rs.dominance_le((0, 0), (1, 0))        # off the root lattice


def test_dominant_representative_and_orbits():
    rs = build("B", 2)
    for w in [(1, 2), (0, 0), (-1, 3), (2, -5), (-3, -1)]:
        rep = rs.dominant_representative(w)
        assert rs.is_dominant(rep)
        orbit = rs.weight_orbit(w)
        assert rep in orbit
        # every orbit member resolves to the same representative
        for v in orbit:
            assert rs.dominant_representative(v) == rep


def test_dominant_below_a2():
    rs = build("A", 2)
    assert rs.dominant_below((1, 1)) == ((0, 0), (1, 1))
    below = rs.dominant_below((3, 3))
    assert (3, 0) in below and (0, 3) in below and (1, 1) in below
    for mu in below:
        assert rs.dominance_le(mu, (3, 3))


def box_dominant_below(rs, lam):
    """Reference for dominant_below: every offset of root coordinates up to
    the floor of lam's, kept when lam minus the offset is dominant."""
    top = to_root_basis(rs, lam)
    if any(x < 0 for x in top):
        return ()
    found = set()
    for offsets in itertools.product(*(range(int(x) + 1) for x in top)):
        mu = vsub(tuple(lam), from_root_basis(rs, offsets))
        if rs.is_dominant(mu):
            found.add(mu)
    return tuple(sorted(found, key=lambda m: (height(rs, m), m)))


# (family, rank, largest k of the k * theta_long tops)
_SEARCH_CASES = [("A", 2, 4), ("A", 3, 3), ("A", 4, 2), ("B", 2, 4),
                 ("B", 3, 3), ("C", 3, 3), ("D", 4, 2), ("G", 2, 24),
                 ("F", 4, 2), ("E", 6, 2)]


@pytest.mark.parametrize("family,rank,kmax", _SEARCH_CASES)
def test_dominant_below_matches_the_box(family, rank, kmax):
    rs = build(family, rank)
    theta = rs.theta_long
    lams = [vscale(k, theta) for k in range(kmax + 1)]
    # non-dominant tops inside the cone, and tops off the cone
    lams += [vsub(vscale(2, theta), a) for a in rs.cartan]
    lams += [rs.cartan[0], vneg(theta), vneg(rs.cartan[-1])]
    if rank <= 3:
        lams += [tuple(c) for c in itertools.product(range(-1, 3), repeat=rank)]
    for lam in lams:
        assert rs.dominant_below(lam) == box_dominant_below(rs, lam), lam
    assert rs.dominant_below(vneg(theta)) == ()


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("C", 3), ("G", 2),
                                         ("F", 4)])
def test_dominant_top_needs_no_dominance_filter(family, rank):
    # Everything reached down from a dominant top lies below it; below a
    # non-dominant lam = s_i(top) the search result is still filtered.
    rs = build(family, rank)
    for k in range(3):
        top = vscale(k, rs.theta_long)
        below = rs.dominant_below(top)
        assert below == tuple(mu for mu in below if rs.dominance_le(mu, top))
    top = vscale(2, rs.theta_long)
    i = next(i for i, c in enumerate(top) if c > 0)
    lam = rs.simple_reflection(top, i)
    assert not rs.is_dominant(lam) and rs.dominant_representative(lam) == top
    below = rs.dominant_below(lam)
    assert below == tuple(mu for mu in rs.dominant_below(top) if rs.dominance_le(mu, lam))
    assert top not in below and below


def test_dominant_below_e7_two_theta():
    rs = build("E", 7)
    omega = [tuple(int(i == j) for j in range(7)) for i in range(7)]
    assert rs.dominant_below(vscale(2, rs.theta_long)) == (
        (0,) * 7, omega[0], omega[5], omega[2], vscale(2, omega[0]),
    )


def test_dominant_below_e8_three_theta():
    # the box of root offsets below 3 theta has about 2.5 * 10^8 points
    rs = build("E", 8)
    top = vscale(3, rs.theta_long)
    below = rs.dominant_below(top)
    assert len(below) == 10 and len(set(below)) == 10
    assert below[0] == (0,) * 8 and below[-1] == top
    for mu in below:
        assert rs.is_dominant(mu) and rs.dominance_le(mu, top)


def test_dominant_up_to_height():
    rs = build("A", 2)
    weights = dominant_up_to_height(rs, 3)
    # height(c1, c2) = c1 + c2 in A_2
    assert set(weights) == {
        (c1, c2) for c1 in range(4) for c2 in range(4) if c1 + c2 <= 3
    }
    heights = [height(rs, w) for w in weights]
    assert heights == sorted(heights)


def test_json_schema():
    rs = build("A", 2)
    doc = rs.to_json_dict()
    # positive roots are listed by height, then lexicographic root coords
    assert doc == {
        "family": "A",
        "rank": 2,
        "cartan": [[2, -1], [-1, 2]],
        "positive_roots": [[-1, 2], [2, -1], [1, 1]],
        "rho": [1, 1],
        "theta_short": [1, 1],
    }


def test_inner_product_normalisation():
    # Short roots have squared length 2; 3 for the long G_2 root ratio.
    for family, rank, long_norm in [("A", 2, 2), ("B", 2, 4), ("G", 2, 6)]:
        rs = build(family, rank)
        norms = {root_norm2(rs, r) for r in rs.positive_root_coords}
        assert min(norms) == 2
        assert max(norms) == long_norm


def test_coroot_pairing_is_cartan_on_simples():
    rs = build("G", 2)
    for i in range(rs.rank):
        e_i = tuple(int(i == j) for j in range(rs.rank))
        for w in [(1, 0), (0, 1), (2, 3), (-1, 4)]:
            assert coroot_pairing(rs, w, e_i) == w[i]


def test_root_system_is_an_immutable_value():
    rs = build("G", 2)
    with pytest.raises(AttributeError):
        rs.rho = (2, 2)
    with pytest.raises(AttributeError):
        rs.extra = 1
    with pytest.raises(AttributeError):
        rs.id.rank = 3
    assert rs.rho == (1, 1)
    twin = build("G", 2)
    assert twin == rs and twin is not rs and hash(twin) == hash(rs)
    assert twin.id == rs.id and str(rs.id) == "G2"
    assert build("B", 2) != build("C", 2)
