"""Weyl group enumeration, dot action, reflection lengths, the fold's chamber walk."""

import itertools

import pytest

from nilcone import (
    NonDominantWeightError,
    build,
    dot_terms,
    partition,
    reflection_length_theta,
    shift_constant,
)
from nilcone.graded import fold
from nilcone.rootsys import vadd, vsub
from root_lattice import coroot_pairing, to_root_basis
from weyl_oracle import (
    WeylCapExceededError,
    chamber_resolution,
    det_int,
    dot_action,
    enumerate_group,
    inversion_count,
    weyl_group_order,
)


def test_a1_two_elements(groups):
    W = groups("A", 1)
    assert W.order == 2
    assert sorted(e.length for e in W.elements) == [0, 1]


def test_a2_six_elements(groups):
    W = groups("A", 2)
    assert W.order == 6
    assert W.longest_element().length == 3


def test_f4_order_under_cap(systems):
    W = enumerate_group(systems("F", 4), cap=2000)
    assert W.order == 1152
    assert W.longest_element().length == 24


def test_cap_exceeded_is_clean(systems):
    with pytest.raises(WeylCapExceededError) as exc:
        enumerate_group(systems("A", 3), cap=10)
    assert exc.value.cap == 10
    # E_8 is rejected before any enumeration happens
    with pytest.raises(WeylCapExceededError):
        enumerate_group(build("E", 8))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                         ("G", 2), ("F", 4)])
def test_classical_orders(systems, family, rank):
    W = enumerate_group(systems(family, rank))
    assert W.order == weyl_group_order(family, rank)
    lengths = [e.length for e in W.elements]
    assert lengths.count(0) == 1
    n_pos = len(systems(family, rank).positive_roots)
    assert lengths.count(n_pos) == 1
    assert max(lengths) == n_pos


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                         ("C", 3), ("D", 4), ("G", 2)])
def test_length_is_inversion_count_and_sign_is_det(systems, groups, family, rank):
    rs = systems(family, rank)
    for e in groups(family, rank).elements:
        assert inversion_count(rs, e.matrix) == e.length
        assert det_int(e.matrix) == e.sign


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_signs_sum_to_zero(groups, family, rank):
    assert sum(e.sign for e in groups(family, rank).elements) == 0


def test_matrices_permute_roots(systems, groups):
    rs = systems("B", 2)
    roots = set(rs.positive_roots) | {tuple(-c for c in r) for r in rs.positive_roots}
    for e in groups("B", 2).elements:
        image = {e.apply(r) for r in roots}
        assert image == roots


def test_dot_action_examples(systems, groups):
    rs1 = systems("A", 1)
    W1 = groups("A", 1)
    identity = next(e for e in W1.elements if e.length == 0)
    s = next(e for e in W1.elements if e.length == 1)
    assert dot_action(rs1, identity, (5,)) == (5,)
    assert dot_action(rs1, s, (0,)) == (-2,)

    for family, rank in [("A", 2), ("B", 2)]:
        rs = systems(family, rank)
        W = groups(family, rank)
        w0 = W.longest_element()
        zero = (0,) * rank
        assert dot_action(rs, w0, zero) == tuple(-2 * c for c in rs.rho)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_dot_action_is_group_action(systems, groups, family, rank):
    rs = systems(family, rank)
    elements = groups(family, rank).elements
    lams = [(0,) * rank, (1, 0), (2, 3), (-1, 1)]
    for w1, w2 in itertools.product(elements, repeat=2):
        m12 = tuple(
            tuple(sum(w1.matrix[i][k] * w2.matrix[k][j] for k in range(rank))
                  for j in range(rank))
            for i in range(rank)
        )
        composed = next(e for e in elements if e.matrix == m12)
        for lam in lams:
            assert dot_action(rs, composed, lam) == dot_action(
                rs, w1, dot_action(rs, w2, lam)
            )


def test_reflection_length_theta_small():
    assert reflection_length_theta(build("A", 1)) == 1
    assert reflection_length_theta(build("A", 2)) == 3
    assert shift_constant(build("A", 2)) == 2


def test_reflection_length_theta_e8_without_enumeration():
    rs = build("E", 8)
    assert reflection_length_theta(rs) == 57
    assert shift_constant(rs) == 29


def test_reflection_length_matches_enumerated_reflection(systems, groups):
    # The inversion count shortcut agrees with the honest group element.
    for family, rank in [("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3)]:
        rs = systems(family, rank)
        theta = rs.theta_short
        # s_theta as a matrix: w -> w - <w, theta^vee> theta
        found = None
        for e in groups(family, rank).elements:
            if all(
                e.apply(w) == vsub(w, tuple(coroot_pairing(rs, w, rs.theta_short_coords) * t
                                            for t in theta))
                for w in [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
            ):
                found = e
                break
        assert found is not None
        assert found.length == reflection_length_theta(rs)


def hand_fold(monkeypatch, rs, weights):
    """graded.fold at mu = 0 over a hand-made key set, one key at each of
    the distinct weights x, worth 3^i at the i-th.  A sum of distinct
    powers of 3 with signs has one balanced ternary form, so the profile
    names the sign and the dominant point of every x off a wall."""
    keys = partition._WeightKeys([*weights, (0,) * rs.rank], 1)
    values = {keys.pack(vadd(x, keys.bias)): 3**i for i, x in enumerate(weights)}
    monkeypatch.setattr(partition, "low_degrees", lambda *_: (None, keys, values))
    return fold(rs, 1, [(0,) * rs.rank])[1][0]


def test_fold_examples(systems, monkeypatch):
    rs = systems("A", 2)
    # dominant weights stay where they are, and -rho is singular
    assert hand_fold(monkeypatch, rs, [(0, 0), (1, 0), (2, 3), (-1, -1)]) == {
        (0, 0): 1, (1, 0): 3, (2, 3): 9}
    rs1 = systems("A", 1)
    assert hand_fold(monkeypatch, rs1, [(-2,), (-1,)]) == {(0,): -1}
    assert hand_fold(monkeypatch, rs1, []) == {}


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_fold_resolves_dot_orbit(systems, groups, monkeypatch, family, rank):
    rs = systems(family, rank)
    elements = groups(family, rank).elements
    for lam in [(0,) * rank, (1, 0), (0, 2), (1, 1)]:
        mus = [dot_action(rs, e, lam) for e in elements]
        assert hand_fold(monkeypatch, rs, mus) == {
            lam: sum(e.sign * 3**i for i, e in enumerate(elements))}


def test_fold_detects_singular_nonsimple_wall(systems, groups, monkeypatch):
    # mu + rho = omega_1 - omega_2 in B_2 pairs nonzero with both simple
    # coroots but lies on the wall of the long root alpha_1 + 2 alpha_2.
    rs = systems("B", 2)
    mu = (0, -2)
    nu = vadd(mu, rs.rho)
    assert all(c != 0 for c in nu)
    assert coroot_pairing(rs, nu, (1, 2)) == 0
    assert chamber_resolution(rs, groups("B", 2), mu) is None
    assert hand_fold(monkeypatch, rs, [mu, (1, 0)]) == {(1, 0): 3}


@pytest.mark.parametrize("family,rank,m", [("A", 2, 5), ("B", 2, 5), ("G", 2, 6)])
def test_fold_matches_a_scan_of_the_group(systems, groups, family, rank, m):
    # Each low-degree x, sent into the dominant chamber by a scan of every
    # element of W, adds its value with the sign found to the lam it
    # reaches, at mu = 0 and theta_s: fold gives the same profiles, with
    # points on walls and of either sign among them.
    rs, W = systems(family, rank), groups(family, rank)
    _, keys, values = partition.low_degrees(rs, m)
    mus = [(0,) * rank, rs.theta_short]
    _, folded = fold(rs, m, mus)
    signs = set()
    for mu, profile in zip(mus, folded):
        scanned = {}
        # Each x read with mu added: the weight x + mu the scan resolves.
        for x_mu, value in zip(zip(*keys.columns(values, mu)), values.values()):
            found = chamber_resolution(rs, W, x_mu)
            signs.add(found and found[0])
            if found:
                sign, lam = found
                scanned[lam] = scanned.get(lam, 0) + sign * value
        assert profile == {lam: v for lam, v in scanned.items() if v}
    assert signs == {None, 1, -1}


def _scanned_terms(rs, W, lam, mu):
    """The term list by brute force: every element of W, kept when
    w.lam - mu lies in the nonnegative root cone."""
    if any(x.denominator > 1 for x in to_root_basis(rs, vsub(lam, mu))):
        return []
    terms = []
    for e in W.elements:
        arg = to_root_basis(rs, vsub(dot_action(rs, e, lam), mu))
        if all(c >= 0 for c in arg):
            terms.append((e.sign, arg))
    return sorted(terms)


@pytest.mark.parametrize("family,rank,sweep", [("A", 4, 1), ("B", 3, 2), ("C", 3, 2),
                                               ("D", 4, 1), ("F", 4, 1), ("G", 2, 3)])
def test_dot_terms_match_group_scan(calculators, groups, family, rank, sweep):
    calc = calculators(family, rank)
    rs = calc.rs
    W = groups(family, rank)
    for lam in calc.sweep_domain(sweep):
        for mu in [(0,) * rank, rs.theta_short]:
            assert sorted(dot_terms(rs, lam, mu)) == _scanned_terms(rs, W, lam, mu), (
                lam, mu,
            )


def test_dot_terms_refuse_a_non_dominant_lambda(systems):
    # the walk starts from a dominant lam only, as series, kostant_mult
    # and WeightMultiplicities already require
    rs = systems("B", 2)
    for lam in [(-1, 0), (2, -1), (-1, -1)]:
        with pytest.raises(NonDominantWeightError) as caught:
            dot_terms(rs, lam, (0, 0))
        assert caught.value.weight == lam
    with pytest.raises(ValueError, match="2 coordinates"):
        dot_terms(rs, (-1,), (0, 0))


def test_dot_terms_e8_adjoint_without_enumeration():
    rs = build("E", 8)
    terms = dot_terms(rs, rs.theta_long, (0,) * 8)
    assert len(terms) == 2318
    assert terms[0] == (1, rs.theta_long_coords)
    assert sorted(set(terms)) == sorted(terms)
