"""Graded multiplicity formulas, cohomology tables, Hilbert series."""

import itertools
import json
import re
from math import comb

import pytest

from cli_runner import invoke
from nilcone import (
    NonDominantWeightError,
    WeightMultiplicities,
    build,
    dot_terms,
    weyl_dim,
)
from nilcone.cli import little_adjoint_dim, nilcone_hilbert_closed_form
from nilcone.graded import KIND_ROWS, PROFILE, fold
from nilcone.rootsys import exponents, vadd, vscale, vsub
from root_lattice import dominance_le, height, to_root_basis
from weyl_oracle import chamber_resolution, dominant_up_to_height, enumerate_group


def symmetric_power_oracle(rs, n):
    """Multiplicity of each L(lam) in degree n of the nilcone ring, computed
    without the alternating Weyl sum: expand the weight multiset of the n-th
    symmetric power of the positive-root space and resolve every weight
    through the dominant chamber by a scan of the enumerated group."""
    group = enumerate_group(rs)
    counts = {}
    for combo in itertools.combinations_with_replacement(
        rs.positive_roots, n
    ):
        weight = (0,) * rs.rank
        for c in combo:
            weight = tuple(a + b for a, b in zip(weight, c))
        resolved = chamber_resolution(rs, group, weight)
        if resolved is None:
            continue
        sign, lam = resolved
        counts[lam] = counts.get(lam, 0) + sign
    return {lam: v for lam, v in counts.items() if v}


# -- euler kernel -------------------------------------------------------------

def euler_profile(calc, lam, mu):
    """{n: q^n coefficient of E(lam, mu; q)}, zeros dropped."""
    packing, [value] = calc.table.packed_sums([dot_terms(calc.rs, lam, mu)])
    return packing.balanced(value, packing.height)


def test_euler_mult_trivial(calculators):
    calc = calculators("A", 2)
    assert euler_profile(calc, (0, 0), (0, 0)) == {0: 1}


def test_euler_mult_a2_adjoint(calculators):
    calc = calculators("A", 2)
    assert euler_profile(calc, (1, 1), (0, 0)) == {1: 1, 2: 1}


def test_euler_mult_a1(calculators):
    calc = calculators("A", 1)
    assert euler_profile(calc, (2,), (0,)) == {1: 1}


def test_euler_mult_off_lattice_is_zero(calculators):
    calc = calculators("A", 2)
    assert euler_profile(calc, (1, 0), (0, 0)) == {}


# -- named multiplicities ------------------------------------------------------

def test_nilcone_constants(calculators):
    calc = calculators("A", 2)
    series = calc.series("d", [(0, 0)])[0]
    assert series.get(0, 0) == 1
    for n in range(1, 6):
        assert series.get(n, 0) == 0


def test_nilcone_a2_adjoint(calculators):
    calc = calculators("A", 2)
    assert calc.series("d", [(1, 1)])[0] == {1: 1, 2: 1}
    zero_mult = WeightMultiplicities(calculators("A", 2).rs, (1, 1)).at((0, 0))
    assert sum(calc.series("d", [(1, 1)])[0].values()) == zero_mult == 2


def test_nilcone_a1_is_delta(calculators):
    calc = calculators("A", 1)
    for m in range(7):
        lam = (2 * m,)
        assert calc.series("d", [lam])[0] == ({m: 1} if m else {0: 1})


def test_induced_vanishes_below_shift(calculators):
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        calc = calculators(family, rank)
        for lam in dominant_up_to_height(calc.rs, 4):
            series = calc.series("a", [lam])[0]
            for i in range(calc.k):
                assert series.get(i, 0) == 0


def test_induced_a2_adjoint(calculators):
    calc = calculators("A", 2)
    assert calc.k == 2
    assert calc.series("a", [(1, 1)])[0].get(2, 0) == 1
    assert calc.series("a", [(1, 1)])[0] == {2: 1}


def test_induced_a1_trivial_module(calculators):
    calc = calculators("A", 1)
    assert calc.k == 1
    series = calc.series("a", [(0,)])[0]
    for i in range(6):
        assert series.get(i, 0) == 0


def test_subregular_trivial(calculators):
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        calc = calculators(family, rank)
        assert calc.series("t", [(0,) * rank])[0] == {0: 1}


def test_subregular_a2_adjoint(calculators):
    calc = calculators("A", 2)
    assert calc.series("t", [(1, 1)])[0] == {1: 1}
    mults = WeightMultiplicities(calc.rs, (1, 1))
    total = sum(calc.series("t", [(1, 1)])[0].values())
    assert total == mults.at((0, 0)) - mults.at(calc.rs.theta_short) == 1


def test_subregular_a1_vanishes_off_zero(calculators):
    calc = calculators("A", 1)
    for m in range(1, 8):
        assert calc.series("t", [(2 * m,)])[0] == {}
        assert calc.series("t", [(2 * m - 1,)])[0] == {}


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2)])
def test_symmetric_power_oracle_matches_hesselink(calculators, family, rank):
    calc = calculators(family, rank)
    rs = calc.rs
    for n in range(0, 7):
        oracle = symmetric_power_oracle(rs, n)
        bound = tuple(n * c for c in rs.theta_long)
        for lam in rs.dominant_below(bound):
            assert calc.series("d", [lam])[0].get(n, 0) == oracle.get(lam, 0), (lam, n)
        # the oracle found nothing outside the sweep bound
        for lam in oracle:
            assert dominance_le(rs, lam, bound)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_exact_sequence_decomposition_height_10(calculators, family, rank):
    # d_n = t_n + a_n with every term nonnegative, and the totals match
    # the weight multiplicity identities.
    calc = calculators(family, rank)
    rs = calc.rs
    for lam in dominant_up_to_height(rs, 10):
        d = calc.series("d", [lam])[0]
        a = calc.series("a", [lam])[0]
        t = calc.series("t", [lam])[0]
        for n in set(d) | set(a) | set(t):
            assert d.get(n, 0) == t.get(n, 0) + a.get(n, 0)
            assert t.get(n, 0) >= 0 and a.get(n, 0) >= 0
        mults = WeightMultiplicities(rs, lam)
        zero = (0,) * rank
        assert sum(d.values()) == mults.at(zero)
        assert sum(t.values()) == mults.at(zero) - mults.at(rs.theta_short)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_support_bound(calculators, family, rank):
    calc = calculators(family, rank)
    rs = calc.rs
    for lam in dominant_up_to_height(rs, 8):
        h = height(rs, lam)
        for series in (calc.series("d", [lam])[0], calc.series("t", [lam])[0]):
            for n in series:
                assert n <= h


def q_profile(calc, lams, alpha):
    """[{n + 1: coefficient n of E(lam, alpha; q)} for lam in lams], zeros
    dropped: q E(lam, alpha; q), read balanced from one batch."""
    packing, values = calc.table.packed_sums(
        [dot_terms(calc.rs, lam, alpha) for lam in lams])
    return [{n + 1: v for n, v in packing.balanced(value, packing.height).items()}
            for value in values]


@pytest.mark.parametrize("family,rank,sweep,short", [
    ("A", 2, 3, 0), ("A", 3, 2, 0), ("B", 2, 6, 1), ("B", 3, 2, 2), ("C", 3, 2, 0),
    ("D", 4, 2, 0), ("G", 2, 6, 0), ("F", 4, 2, 2), ("E", 6, 1, 0),
])
def test_a_is_q_times_the_short_simple_root_profile(calculators, family, rank,
                                                    sweep, short):
    # a(lam; q) = q E(lam, alpha; q), degree by degree, for a short simple
    # root alpha (Bourbaki index short + 1).  The functions on
    # T*(G/P_alpha) have d(lam; q) - q E(lam, alpha; q) as graded
    # multiplicities, and for a short alpha its moment map should be
    # birational onto the subregular closure; this test is the evidence,
    # not a proof.  It shares the kernel with series, but not theta_s or k.
    calc = calculators(family, rank)
    lams = list(calc.sweep_domain(sweep))
    assert q_profile(calc, lams, calc.rs.cartan[short]) == calc.series("a", lams)


def test_a_is_not_q_times_a_long_simple_root_profile(calculators):
    # With B2's long simple root alpha_1, d - q E(lam, alpha_1; q) has one
    # more L(1,0) in degree 1 than t.
    calc = calculators("B", 2)
    lams = list(calc.sweep_domain(6))
    long, a = q_profile(calc, lams, calc.rs.cartan[0]), calc.series("a", lams)
    assert long != a
    i = lams.index((1, 0))
    assert long[i].get(1, 0) == a[i].get(1, 0) - 1


@pytest.mark.parametrize("rank,sweep", [(2, 4), (3, 3), (4, 2), (5, 2)])
def test_levi_of_the_first_simple_roots_gives_the_minimal_orbit(calculators,
                                                                 rank, sweep):
    """E_P(lam; q) = sum_{T in S} (-q)^|T| E(lam, sum T; q) is q^n at lam =
    n theta and 0 elsewhere, for the parabolic P of A_rank with Levi
    alpha_1, ..., alpha_{rank - 1} and S the Levi's positive roots.

    Since 1 / prod_{beta in Phi+ - S} (1 - q e^beta) = prod_{beta in S}
    (1 - q e^beta) / prod_{beta in Phi+} (1 - q e^beta), E_P(lam; q) is
    the graded multiplicity of L(lam) in the Euler characteristic of the
    functions on T*(G/P).  G/P is P^rank, and T*(P^rank) resolves the
    closure of the minimal orbit with no higher cohomology, so E_P(lam;
    q) is the multiplicity in its ring C[O_min] = sum_n L(n theta), with
    L(n theta) in degree n (Vinberg and Popov, Izv. Akad. Nauk SSSR 36,
    1972).  Each E is read balanced before the sum.
    """
    calc = calculators("A", rank)
    rs = calc.rs
    levi = [c for c, r in zip(rs.positive_roots, rs.positive_root_coords)
            if not r[-1]]
    subsets = {}  # sum T (fw coordinates) -> {|T|: number of such T}
    for size in range(len(levi) + 1):
        for t in itertools.combinations(levi, size):
            by_size = subsets.setdefault(tuple(map(sum, zip((0,) * rank, *t))), {})
            by_size[size] = by_size.get(size, 0) + 1
    lams, mus = list(calc.sweep_domain(sweep)), list(subsets)
    packing, values = calc.table.packed_sums(
        [dot_terms(rs, lam, mu) for lam in lams for mu in mus])
    values = iter(values)
    for lam in lams:
        total = {}
        for mu in mus:
            e = packing.balanced(next(values), packing.height)
            for size, count in subsets[mu].items():
                for n, c in e.items():
                    total[n + size] = total.get(n + size, 0) + (-1) ** size * count * c
        multiple = lam[0]  # lam = multiple * theta when it is one
        expected = {multiple: 1} if lam == vscale(multiple, rs.theta_long) else {}
        assert {n: c for n, c in total.items() if c} == expected, lam


# -- cohomology tables ---------------------------------------------------------

def test_trivial_table_a1(calculators):
    rows = calculators("A", 1).cohomology_table("trivial", 2, 4)
    assert rows == {0: {(0,): 1}, 1: {}, 2: {(2,): 1}, 3: {}, 4: {(4,): 1}}


def test_tilting_table_parity(calculators):
    for family, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rows = calculators(family, rank).cohomology_table("tilting", 2, 6)
        assert sorted(rows) == list(range(7))
        for i in range(1, 7, 2):
            assert rows[i] == {}
        for i in range(0, 7, 2):
            for mult in rows[i].values():
                assert mult > 0


def test_induced_wall_table_parity(calculators):
    rows = calculators("A", 2).cohomology_table("induced_wall", 2, 6)
    for i in range(0, 7, 2):
        assert rows[i] == {}
    # first nonzero odd row sits at 2k - 1 = 3
    assert rows[1] == {}
    assert rows[3] != {}


def test_weyl_table_odd_rows_copy_trivial(calculators):
    for family, rank in [("A", 1), ("A", 2), ("B", 2)]:
        calc = calculators(family, rank)
        weyl_t = calc.cohomology_table("weyl", 2, 7)
        trivial = calc.cohomology_table("trivial", 2, 7)
        tilting = calc.cohomology_table("tilting", 2, 7)
        for i in range(0, 7):
            if i % 2 == 0:
                assert weyl_t[i] == tilting[i]
            else:
                assert weyl_t[i] == trivial[i - 1]


def test_simple_table_a2(calculators):
    rows = calculators("A", 2).cohomology_table("simple", 2, 5)
    assert rows[0] == rows[2] == rows[4] == {}
    # H^1 = d_0 + a_1: only L(0) with multiplicity 1 (a_1 = 0 since k = 2)
    assert rows[1] == {(0, 0): 1}


def test_simple_table_assembles_d_and_a(calculators):
    calc = calculators("B", 2)
    rows = calc.cohomology_table("simple", 2, 9)
    for lam in calc.sweep_domain(2):
        d = calc.series("d", [lam])[0]
        a = calc.series("a", [lam])[0]
        for i in range(0, 4):
            expected = d.get(i, 0) + a.get(i + 1, 0)
            assert rows[2 * i + 1].get(lam, 0) == expected


def test_euler_consistency_weyl_kind(calculators):
    # even total minus odd total per weight equals -m_lam(theta)
    calc = calculators("A", 2)
    max_i = 25
    rows = calc.cohomology_table("weyl", 2, max_i)
    for lam in calc.sweep_domain(2):
        even = sum(rows[i].get(lam, 0) for i in range(0, max_i + 1, 2))
        odd = sum(rows[i].get(lam, 0) for i in range(1, max_i + 1, 2))
        assert even - odd == -WeightMultiplicities(calc.rs, lam).at(
            calc.rs.theta_short
        )


def test_table_json_and_csv_shape():
    args = ["cohomology", "-f", "A", "-r", "1", "--kind", "trivial", "--sweep", "1",
            "--max-i", "2"]
    doc = json.loads(invoke([*args, "--format", "json"]).stdout)
    assert set(doc) == {"schema_version", "command", "parity_ok", "family", "rank",
                        "kind", "k", "degree_convention", "rows"}
    assert doc["family"] == "A" and doc["rank"] == 1 and doc["kind"] == "trivial"
    assert doc["rows"][0] == {"i": 0, "entries": [{"lambda": [0], "mult": 1}]}
    rows = invoke([*args, "--format", "csv"]).stdout.splitlines()
    assert rows == ["i,lambda,mult", '0,"0",1', '2,"2",1']


# -- the A_2 tilting example ----------------------------------------------------

def test_tilting_euler_values():
    # The table rows: L(lambda), then its Euler multiplicity.
    lines = invoke(["tilting-example"]).stdout.splitlines()
    rows = {line.split()[0]: int(line.split()[1]) for line in lines[1:-1]}
    assert rows["L(0,0)"] == 1
    assert rows["L(3,0)"] == -1
    assert rows["L(0,3)"] == 0


# -- Hilbert series ---------------------------------------------------------------

def quadric_cone_dimensions(max_degree):
    """Monomial count on the rank-one nilpotent cone: monomials in x, y, z
    of each degree, reduced by the single relation xz = y^2."""
    dims = []
    for n in range(max_degree + 1):
        normal_forms = set()
        for a in range(n + 1):
            for b in range(n - a + 1):
                c = n - a - b
                # rewrite xz -> y^2 until one of the outer exponents is gone
                a2, b2, c2 = a, b, c
                while a2 > 0 and c2 > 0:
                    a2 -= 1
                    c2 -= 1
                    b2 += 2
                normal_forms.add((a2, b2, c2))
        dims.append(len(normal_forms))
    return dims


@pytest.mark.parametrize("family,rank,m", [
    ("A", 1, 6), ("A", 2, 4), ("B", 2, 4), ("C", 3, 3), ("D", 4, 3),
    ("G", 2, 8), ("F", 4, 3), ("E", 6, 2), ("E", 7, 2)])
def test_domain_depths_match_the_per_weight_test(systems, family, rank, m):
    # the folded weights of both profiles, every fundamental weight (off the
    # root lattice wherever det > 1), and weights not below m * theta_long
    rs = systems(family, rank)
    top = vscale(m, rs.theta_long)
    _, folded = fold(rs, m, [(0,) * rank, rs.theta_short])
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    above = [vadd(top, rs.theta_long), vadd(top, rs.cartan[0])]
    lams = set().union(*folded, units, above)
    expected = {}
    for lam in lams:
        r = to_root_basis(rs, vsub(top, lam))
        if all(x.denominator == 1 and x >= 0 for x in r):
            expected[lam] = r
    depths = rs.depths(top, lams)
    assert depths == expected
    assert len(expected) > 1 and not expected.keys() & above
    # domain order: deepest first, then by coordinates; with the whole
    # domain among other weights, the order dominant_below gives, so
    # hilbert_series checks its rows in sweep_domain's order (the folded
    # weights miss some of the domain on G2 and F4, whose profiles are 0)
    assert list(depths) == sorted(expected, key=lambda lam: (-sum(expected[lam]), lam))
    domain = rs.dominant_below(top)
    assert list(rs.depths(top, lams.union(domain)).items()) == list(domain.items())
    if rs.fw_to_root_det > 1:
        assert any(x.denominator > 1 for unit in units for x in to_root_basis(rs, unit))


def test_hilbert_a1_nilcone_vs_quadric_oracle(calculators):
    calc = calculators("A", 1)
    assert calc.hilbert_series("nilcone", 4) == quadric_cone_dimensions(4)
    assert calc.hilbert_series("nilcone", 4) == [1, 3, 5, 7, 9]


def test_hilbert_a1_subregular_is_point(calculators):
    calc = calculators("A", 1)
    assert calc.hilbert_series("subregular", 5) == [1, 0, 0, 0, 0, 0]


def test_hilbert_a2_nilcone_vs_series_oracle(calculators):
    # dim C[N]_n for sl_3: coefficients of (1-t^2)(1-t^3) / (1-t)^8,
    # expanded independently via binomials.
    def coefficient(n):
        def c8(m):
            return comb(m + 7, 7) if m >= 0 else 0

        return c8(n) - c8(n - 2) - c8(n - 3) + c8(n - 5)

    calc = calculators("A", 2)
    assert calc.hilbert_series("nilcone", 6) == [coefficient(n) for n in range(7)]
    assert calc.hilbert_series("nilcone", 1)[1] == 8


def test_hilbert_a2_subregular_degree_one(calculators):
    # degree 1 of the subregular ring: only t_1(theta) = 1 survives, dim 8
    # minus nothing else; total = 8 - 0? compute directly instead:
    calc = calculators("A", 2)
    coeffs = calc.hilbert_series("subregular", 3)
    assert coeffs[0] == 1
    # cross-check each coefficient against the series totals
    for n in range(4):
        total = 0
        for lam in calc.rs.dominant_below(tuple(n * c for c in calc.rs.theta_long)):
            t = calc.series("t", [lam])[0].get(n, 0)
            if t:
                total += t * weyl_dim(calc.rs, lam)
        assert coeffs[n] == total


# -- closed forms from the exponents -------------------------------------------------

def test_exponents_helper_examples(systems):
    assert exponents(systems("A", 3)) == [1, 2, 3]
    assert exponents(systems("G", 2)) == [1, 5]
    assert exponents(systems("D", 4)) == [1, 3, 3, 5]
    assert exponents(systems("E", 6)) == [1, 4, 5, 7, 8, 11]


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 4), ("B", 2),
                                         ("B", 3), ("C", 3), ("D", 4), ("G", 2),
                                         ("F", 4), ("E", 6), ("E", 7)])
def test_adjoint_degrees_are_the_exponents(calculators, family, rank):
    # The adjoint module occurs in C[N] exactly in the degrees given by the
    # exponents, with their multiplicity (Kostant 1963).  Its odd part is
    # a(theta; q) = q^k E(theta, theta_s; q) = q^(k + ht(theta - theta_s)):
    # theta_s has multiplicity 1 in g, and the w = 1 term of the sum gives
    # that power with coefficient 1 (Lusztig 1983).  With k = ht(theta_s)
    # that is q^(h - 1), so t(theta; q) is d(theta; q) less q^(h - 1).
    # CI's E8 row checks t(theta) on E8.
    calc = calculators(family, rank)
    rs, h = calc.rs, sum(calc.rs.theta_long_coords) + 1
    expected = {}
    for e in exponents(rs):
        expected[e] = expected.get(e, 0) + 1
    assert calc.series("d", [rs.theta_long])[0] == expected
    assert calc.k == sum(rs.theta_short_coords)
    assert calc.series("a", [rs.theta_long])[0] == {h - 1: 1}
    del expected[h - 1]  # the largest exponent, h - 1, occurs once
    assert calc.series("t", [rs.theta_long])[0] == expected


@pytest.mark.parametrize("family,rank,max_degree", [
    pytest.param("A", 1, 24, id="A-1"),  # 2n + 1, in s = 7 digit classes
    pytest.param("A", 3, 5, id="A-3"),
    pytest.param("B", 3, 5, id="B-3"),
    pytest.param("C", 3, 5, id="C-3"),
    pytest.param("G", 2, 24, id="G-2"),  # s = 2 digit classes
])
def test_nilcone_hilbert_series_closed_form(calculators, family, rank, max_degree):
    # C[N] is a complete intersection: its Hilbert series is
    # prod_i (1 - q^(e_i + 1)) / (1 - q)^dim g, the closed form that
    # hilbert --check compares with.
    calc = calculators(family, rank)
    expected = nilcone_hilbert_closed_form(calc.rs, max_degree)
    if family == "A" and rank == 1:
        assert expected == [2 * n + 1 for n in range(max_degree + 1)]
    assert calc.hilbert_series("nilcone", max_degree) == expected


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                         ("B", 3), ("C", 3), ("G", 2)])
def test_subregular_hilbert_degree_k_drops_the_little_adjoint(calculators, family,
                                                              rank):
    # a_k(lam) = E(lam, theta_s; q) at q^0 = [lam = theta_s], so below k the
    # subregular series is the nilcone's and degree k loses dim L(theta_s),
    # which hilbert --check counts from the short roots.
    calc = calculators(family, rank)
    rs, k = calc.rs, calc.k
    assert little_adjoint_dim(rs) == weyl_dim(rs, rs.theta_short)
    expected = nilcone_hilbert_closed_form(rs, k)
    expected[k] -= little_adjoint_dim(rs)
    assert calc.hilbert_series("subregular", k) == expected


def assert_palindromic_numerator(calc, m):
    """Check the numerator of the subregular Hilbert series to degree m.

    The subregular closure has dimension 2N - 2, N the number of positive
    roots, so H(q) (1 - q)^(2N - 2), cut at degree m, is its numerator
    there.  A Gorenstein graded domain has a palindromic numerator
    (Stanley, Adv. Math. 28, 1978); the subregular ring is observed to be
    one on the types checked, not proved here, with a numerator of
    degree N - 1.  So the coefficients of degrees 0..N-1 read the same
    backwards and those of degrees N..m are 0.  The check sees a unit of
    one weight's series moved between two degrees, which keeps every
    total and hilbert --check's degrees n <= k.
    """
    n_pos = len(calc.rs.positive_roots)
    dim = 2 * n_pos - 2
    coeffs = calc.hilbert_series("subregular", m)
    numerator = [sum((-1) ** j * comb(dim, j) * coeffs[n - j]
                     for j in range(min(n, dim) + 1))
                 for n in range(m + 1)]
    assert numerator[:n_pos] == numerator[n_pos - 1::-1], numerator
    assert not any(numerator[n_pos:]), numerator


@pytest.mark.parametrize("family,rank,max_degree", [
    ("A", 2, 12), ("A", 3, 12), ("B", 2, 16), ("G", 2, 24),
    ("B", 3, 12), ("C", 3, 12), ("A", 4, 12), ("D", 4, 12),
])
def test_subregular_hilbert_numerator_is_palindromic(calculators, family, rank,
                                                     max_degree):
    # CI's 3.11 job checks B4 and C4 at degree 17 the same way.
    assert_palindromic_numerator(calculators(family, rank), max_degree)


# -- type isomorphisms ------------------------------------------------------------

def test_b2_c2_same_data_under_relabelling(calculators):
    calc_b = calculators("B", 2)
    calc_c = calculators("C", 2)
    assert calc_b.k == calc_c.k
    for lam in dominant_up_to_height(calc_b.rs, 8):
        swapped = (lam[1], lam[0])
        assert calc_b.series("t", [lam])[0] == calc_c.series("t", [swapped])[0]
        assert calc_b.series("d", [lam])[0] == calc_c.series("d", [swapped])[0]


def test_a3_d3_same_data_under_relabelling(calculators):
    calc_a = calculators("A", 3)
    calc_d = calculators("D", 3)
    assert calc_a.k == calc_d.k
    for lam in dominant_up_to_height(calc_a.rs, 6):
        relabelled = (lam[1], lam[0], lam[2])  # middle A_3 node is the D_3 fork
        assert calc_a.series("t", [lam])[0] == calc_d.series("t", [relabelled])[0]


# -- error paths ------------------------------------------------------------------

#
# Positivity of t_n is a theorem, so the violation branch can only be
# reached by sabotaging one side of the difference: ``skew_packed_kernel``
# lowers the degree-0 digit of one packed profile, which is d_0 for
# mu = 0 and a_k for mu = theta_s.

def test_subregular_negativity_is_a_hard_error(calculators, monkeypatch):
    from nilcone import PositivityViolationError

    calc = calculators("A", 2)
    theta_s, k = calc.rs.theta_short, calc.k
    by = -(calc.series("t", [(1, 1)])[0].get(k, 0) + 1)
    skew_packed_kernel(monkeypatch, (1, 1), theta_s, by)
    with pytest.raises(PositivityViolationError,
                       match=rf"t_{k}\(\(1, 1\)\) = -1 < 0") as exc:
        calc.series("t", [(1, 1)])
    assert exc.value.weight == (1, 1) and exc.value.degree == k


def test_internal_negativity_is_a_hard_error(calculators, monkeypatch):
    from nilcone import InternalInconsistencyError

    calc = calculators("A", 2)
    theta_s, k = calc.rs.theta_short, calc.k
    skew_packed_kernel(monkeypatch, (1, 1), (0, 0),
                       calc.series("d", [(1, 1)])[0].get(0, 0) + 1)
    skew_packed_kernel(monkeypatch, (1, 1), theta_s,
                       calc.series("a", [(1, 1)])[0].get(k, 0) + 1)
    nilcone, induced = r"d_0\(\(1, 1\)\) = -1 < 0", rf"a_{k}\(\(1, 1\)\) = -1 < 0"
    with pytest.raises(InternalInconsistencyError, match=nilcone):
        calc.series("d", [(1, 1)])
    with pytest.raises(InternalInconsistencyError, match=induced):
        calc.series("a", [(1, 1)])


def test_negative_coefficient_from_the_packed_kernel_is_a_hard_error(
        calculators, monkeypatch):
    from nilcone import InternalInconsistencyError, PartitionTable, build, graded

    # P(0) - P(theta) = 1 - q - q^2 in A2: the kernel must hand the series
    # methods negative coefficients, not their residues mod 2^B.
    monkeypatch.setattr(graded, "dot_terms",
                        lambda rs, lam, mu: [(1, (0, 0)), (-1, (1, 1))])
    rs = build("A", 2)
    calc = graded.GradedCalculator(rs, table=PartitionTable(rs))
    terms = graded.dot_terms(rs, (1, 1), (0, 0))
    packing, [value] = calc.table.packed_sums([terms])
    assert packing.balanced(value, packing.height) == {0: 1, 1: -1, 2: -1}
    # The error names the lowest negative degree: d_1, and a_{1 + k}.
    with pytest.raises(InternalInconsistencyError, match=r"d_1\(\(1, 1\)\) = -1 < 0"):
        calc.series("d", [(1, 1)])
    with pytest.raises(InternalInconsistencyError, match=r"a_3\(\(1, 1\)\) = -1 < 0"):
        calc.series("a", [(1, 1)])


def test_unknown_names_are_value_errors(calculators):
    calc = calculators("G", 2)
    for query, value in [(lambda: calc.series("x", [(0, 1)]), "'x'"),
                         (lambda: calc.series("", [(0, 1)]), "''"),
                         (lambda: calc.series("dt", [(0, 1)]), "'dt'"),
                         (lambda: calc.cohomology_table("bogus", 1, 2), "'bogus'"),
                         (lambda: calc.hilbert_series("bogus", 3), "'bogus'"),
                         (lambda: calc.hilbert_series("d", 3), "'d'")]:
        with pytest.raises(ValueError, match=value):
            query()


def test_series_refuses_non_dominant_weights(calculators):
    # the dot-orbit walk resolves a non-dominant lam, so unchecked, (-2, 1)
    # fails as an internal inconsistency and (-3, 0) reads {0: 1}; the
    # first non-dominant weight is named before any work
    calc = calculators("A", 2)
    before = dict(calc.table._values)
    for lam in [(-2, 1), (-3, 0), (-1, 0)]:
        for name in "dat":
            with pytest.raises(NonDominantWeightError) as caught:
                calc.series(name, [(1, 1), lam, (0, -1)])
            assert caught.value.weight == lam
    assert calc.table._values == before


# -- the packed Hilbert path ---------------------------------------------------


@pytest.mark.parametrize("variety", list(PROFILE))
@pytest.mark.parametrize("family,rank,max_degree", [("A", 2, 6), ("B", 3, 4),
                                                    ("C", 3, 4), ("G", 2, 8),
                                                    ("F", 4, 3), ("A", 1, 24),
                                                    ("G", 2, 24)])
def test_hilbert_series_is_the_per_weight_sum(calculators, family, rank,
                                              max_degree, variety):
    # hilbert_series sums the fold's low digits; series() reads the
    # full series of the partition table.
    calc = calculators(family, rank)
    expected = [0] * (max_degree + 1)
    lams = calc.sweep_domain(max_degree)
    for lam, series in zip(lams, calc.series(PROFILE[variety], lams)):
        dim = weyl_dim(calc.rs, lam)
        for n, c in series.items():
            if n <= max_degree:
                expected[n] += dim * c
    assert calc.hilbert_series(variety, max_degree) == expected


def count_batches(monkeypatch):
    """Count the PartitionTable.packed_sums calls; returns the counter."""
    from nilcone import PartitionTable

    real, calls = PartitionTable.packed_sums, []

    def counted(self, term_lists):
        calls.append(1)
        return real(self, term_lists)

    monkeypatch.setattr(PartitionTable, "packed_sums", counted)
    return calls


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("G", 2)])
def test_each_domain_is_one_batch(monkeypatch, family, rank):
    calls = count_batches(monkeypatch)
    for variety in PROFILE:
        calls.clear()
        fresh_calculator(family, rank).hilbert_series(variety, 4)
        assert len(calls) == 0  # the fold reads no partition table
        calc = fresh_calculator(family, rank)
        calls.clear()
        calc.series(PROFILE[variety], calc.sweep_domain(2))
        assert len(calls) == 1
    for kind in KIND_ROWS:
        calls.clear()
        fresh_calculator(family, rank).cohomology_table(kind, 2, 6)
        assert len(calls) == 1
    theta = build(family, rank).theta_long
    for name in "dat":
        calls.clear()
        fresh_calculator(family, rank).series(name, [theta])
        assert len(calls) == 1
    # cohomology --check reads its totals from the rows' own batch.
    for args, batches in (
            (["graded", "--variety", "subregular", "--sweep", "2", "--check"], 1),
            (["graded", "--variety", "nilcone", "--lambda", ",".join(["1"] * rank)], 1),
            (["cohomology", "--kind", "tilting", "--sweep", "2"], 1),
            *((["cohomology", "--kind", kind, "--sweep", "2", "--check"], 1)
              for kind in KIND_ROWS),
            (["hilbert", "--variety", "subregular", "--max-degree", "3"], 0)):
        calls.clear()
        result = invoke([*args, "-f", family, "-r", str(rank)])
        assert result.exit_code == 0, result.output
        assert len(calls) == batches, args


@pytest.mark.parametrize("variety", list(PROFILE))
@pytest.mark.parametrize("family,rank,sweep", [("A", 3, 2), ("B", 3, 2), ("G", 2, 3),
                                               ("F", 4, 1)])
def test_batch_series_is_the_per_weight_series(calculators, family, rank, sweep, variety):
    calc, name = calculators(family, rank), PROFILE[variety]
    lams = calc.sweep_domain(sweep)
    batch = fresh_calculator(family, rank)
    assert batch.series(name, lams) == [calc.series(name, [lam])[0] for lam in lams]


def skew_packed_kernel(monkeypatch, lam, mu, by):
    """Make PartitionTable.packed_sums and graded.fold return E(lam, mu;
    2^B) - by, which lowers its degree-0 digit by `by`, for every path
    that reads it.  The term walk tags its lists with their (lam, mu) so
    the kernel knows; the fold gives a profile per (lam, mu) anyway."""
    from nilcone import PartitionTable, graded

    real_terms, real_sums, real_fold = (graded.dot_terms, PartitionTable.packed_sums,
                                        graded.fold)

    class Terms(list):
        pass

    def tagged(rs, lam_, mu_):
        terms = Terms(real_terms(rs, lam_, mu_))
        terms.query = (tuple(lam_), tuple(mu_))
        return terms

    def skewed(self, term_lists):
        term_lists = list(term_lists)
        packing, totals = real_sums(self, term_lists)
        return packing, [total - by if getattr(terms, "query", None) == (lam, mu)
                         else total for terms, total in zip(term_lists, totals)]

    def skewed_fold(rs, m, mus):
        digits, folded = real_fold(rs, m, mus)
        for mu_, profiles in zip(mus, folded):
            if tuple(mu_) == mu:
                profiles[lam] = profiles.get(lam, 0) - by
        return digits, folded

    monkeypatch.setattr(graded, "dot_terms", tagged)
    monkeypatch.setattr(PartitionTable, "packed_sums", skewed)
    monkeypatch.setattr(graded, "fold", skewed_fold)


def fresh_calculator(family, rank):
    from nilcone import GradedCalculator, PartitionTable

    rs = build(family, rank)
    return GradedCalculator(rs, table=PartitionTable(rs))


@pytest.mark.parametrize("family,rank", [("A", 2), ("G", 2)])
def test_hilbert_nilcone_negativity_is_a_hard_error(monkeypatch, family, rank):
    from nilcone import InternalInconsistencyError

    calc = fresh_calculator(family, rank)
    theta = calc.rs.theta_long
    by = calc.series("d", [theta])[0].get(0, 0) + 1
    skew_packed_kernel(monkeypatch, theta, (0,) * rank, by)
    for variety in PROFILE:
        with pytest.raises(InternalInconsistencyError,
                           match=rf"d_0\({re.escape(str(theta))}\) = -1 < 0"):
            calc.hilbert_series(variety, 3)


@pytest.mark.parametrize("family,rank", [("A", 2), ("G", 2)])
def test_hilbert_induced_negativity_is_a_hard_error(monkeypatch, family, rank):
    from nilcone import InternalInconsistencyError

    calc = fresh_calculator(family, rank)
    theta_s, k = calc.rs.theta_short, calc.k
    nilcone = calc.hilbert_series("nilcone", 3)
    by = calc.series("a", [theta_s])[0].get(k, 0) + 1
    skew_packed_kernel(monkeypatch, theta_s, theta_s, by)
    with pytest.raises(InternalInconsistencyError,
                       match=rf"a_{k}\({re.escape(str(theta_s))}\) = -1 < 0"):
        calc.hilbert_series("subregular", 3)
    assert calc.hilbert_series("nilcone", 3) == nilcone


@pytest.mark.parametrize("family,rank", [("A", 2), ("G", 2)])
def test_hilbert_subregular_negativity_is_a_hard_error(monkeypatch, family, rank):
    # A larger a_k(theta_s) with d and a each still nonnegative: only the
    # check of d - q^k a can catch it.
    from nilcone import PositivityViolationError

    calc = fresh_calculator(family, rank)
    theta_s, k = calc.rs.theta_short, calc.k
    by = -(calc.series("t", [theta_s])[0].get(k, 0) + 1)
    skew_packed_kernel(monkeypatch, theta_s, theta_s, by)
    with pytest.raises(PositivityViolationError) as exc:
        calc.hilbert_series("subregular", 3)
    assert (exc.value.weight, exc.value.degree) == (theta_s, k)


@pytest.mark.parametrize("mu", ["zero", "theta_s"])
def test_hilbert_profile_outside_the_domain_is_a_hard_error(monkeypatch, mu):
    # One more unit of d_0, or of a_k (k = 3 <= m), at 4 theta, beyond the
    # weights below 3 theta whose profiles hilbert sums: every digit stays
    # nonnegative, so only the domain check sees it, and it is never
    # dropped silently.
    from nilcone import InternalInconsistencyError

    calc = fresh_calculator("G", 2)
    lam = tuple(4 * c for c in calc.rs.theta_long)
    assert lam not in calc.sweep_domain(3)
    mu = (0, 0) if mu == "zero" else calc.rs.theta_short
    skew_packed_kernel(monkeypatch, lam, mu, -1)
    name = "a" if any(mu) else "d"
    message = (rf"^{name} profile of {re.escape(str(lam))} is nonzero "
               r"outside sweep_domain\(3\)$")
    for variety in (PROFILE if name == "d" else ["subregular"]):
        with pytest.raises(InternalInconsistencyError, match=message):
            calc.hilbert_series(variety, 3)


@pytest.mark.parametrize("variety", list(PROFILE))
def test_hilbert_reports_the_first_failure_in_sweep_order(monkeypatch, variety):
    # d_0 lowered to -1 at (4, 0) and at (1, 2), two weights of the G2
    # domain below 3 theta whose profiles are 0 to degree 3, and raised
    # by 1 at 4 theta = (0, 4), outside it.  sweep_domain(3) lists (4, 0)
    # first, though (1, 2) and (0, 4) sort before it, so that is the
    # error; with (1, 2) and the stray alone, the in-domain (1, 2).
    from nilcone import InternalInconsistencyError

    calc = fresh_calculator("G", 2)
    first, second, stray = (4, 0), (1, 2), (0, 4)
    domain = list(calc.sweep_domain(3))
    assert domain.index(first) < domain.index(second) and stray not in domain
    assert stray < second < first
    skew_packed_kernel(monkeypatch, stray, (0, 0), -1)
    skew_packed_kernel(monkeypatch, second, (0, 0), 1)
    with pytest.raises(InternalInconsistencyError,
                       match=rf"^nilcone multiplicity d_0\({re.escape(str(second))}\) = -1 < 0$"):
        calc.hilbert_series(variety, 3)
    skew_packed_kernel(monkeypatch, first, (0, 0), 1)
    with pytest.raises(InternalInconsistencyError,
                       match=rf"^nilcone multiplicity d_0\({re.escape(str(first))}\) = -1 < 0$"):
        calc.hilbert_series(variety, 3)


@pytest.mark.parametrize("family,rank", [("A", 2), ("G", 2)])
def test_sweep_negativity_is_the_serial_loops_error(monkeypatch, family, rank):
    # A batch checks its series weight by weight, in sweep order.
    from nilcone import InternalInconsistencyError, PositivityViolationError

    calc = fresh_calculator(family, rank)
    theta, theta_s, k = calc.rs.theta_long, calc.rs.theta_short, calc.k
    lams = calc.sweep_domain(2)
    by = calc.series("d", [theta])[0].get(0, 0) + 1
    skew_packed_kernel(monkeypatch, theta, (0,) * rank, by)
    message = rf"d_0\({re.escape(str(theta))}\) = -1 < 0"
    for name in "dt":
        with pytest.raises(InternalInconsistencyError, match=message):
            [calc.series(name, [lam]) for lam in lams]
        with pytest.raises(InternalInconsistencyError, match=message):
            fresh_calculator(family, rank).series(name, lams)
    for kind in ("trivial", "weyl", "simple"):
        with pytest.raises(InternalInconsistencyError, match=message):
            fresh_calculator(family, rank).cohomology_table(kind, 2, 6)
    fresh_calculator(family, rank).cohomology_table("induced_wall", 2, 6)

    monkeypatch.undo()
    by = -(calc.series("t", [theta_s])[0].get(k, 0) + 1)
    skew_packed_kernel(monkeypatch, theta_s, theta_s, by)
    # simple reads d and a only, but checks t as well.
    for kind in (None, "tilting", "weyl", "simple"):
        with pytest.raises(PositivityViolationError) as exc:
            if kind is None:
                fresh_calculator(family, rank).series("t", lams)
            else:
                fresh_calculator(family, rank).cohomology_table(kind, 2, 6)
        assert (exc.value.weight, exc.value.degree) == (theta_s, k)
    result = invoke(["graded", "-f", family, "-r", str(rank),
                     "--variety", "subregular", "--sweep", "2"])
    assert result.exit_code == 4


@pytest.mark.parametrize("max_i", ["0", "6"])
def test_cohomology_weyl_check_sees_a_wrong_total(monkeypatch, max_i):
    # d_0(theta) raised by 1 leaves every digit nonnegative and every row
    # consistent with every other, so only the Freudenthal totals of the
    # full series can catch it, whatever --max-i shows.
    theta = build("A", 2).theta_long
    skew_packed_kernel(monkeypatch, theta, (0, 0), -1)
    args = ["cohomology", "-f", "A", "-r", "2", "--kind", "weyl", "--sweep", "1",
            "--max-i", max_i]
    assert invoke(args).exit_code == 0
    result = invoke([*args, "--check"])
    assert result.exit_code == 4
    assert "total 3 != m(0) = 2 at lambda=(1,1)" in result.output


@pytest.mark.parametrize("kind", list(KIND_ROWS))
@pytest.mark.parametrize("mu,by,message", [
    # d_0(theta) raised by 1: the nilcone total of theta is 3, not m(0) = 2.
    ("zero", -1, "total 3 != m(0) = 2 at lambda=(1,1)"),
    # a_k(theta_s) lowered from 1 to 0: d stays, t_k(theta_s) becomes 1, so
    # the subregular total of theta is 2, not m(0) - m(theta) = 1.
    ("theta_s", 1, "total 2 != m(0)-m(theta) = 1 at lambda=(1,1)"),
], ids=["d", "a"])
def test_cohomology_check_sees_a_wrong_total_for_every_kind(monkeypatch, kind, mu,
                                                            by, message):
    # Each skew leaves every digit of d, a and t nonnegative, and the rows
    # of every kind sit in their kind's parity, so only the totals of the
    # full d and t series can catch it, whichever profiles the kind reads.
    rs = build("A", 2)
    mu = (0, 0) if mu == "zero" else rs.theta_short
    skew_packed_kernel(monkeypatch, rs.theta_long, mu, by)
    args = ["cohomology", "-f", "A", "-r", "2", "--kind", kind, "--sweep", "1"]
    result = invoke(args)
    assert result.exit_code == 0, result.output
    assert "parity vanishing: OK" in result.output
    result = invoke([*args, "--check"])
    assert result.exit_code == 4
    assert message in result.output


@pytest.mark.parametrize("variety", ["nilcone", "subregular"])
def test_hilbert_check_sees_a_wrong_coefficient(monkeypatch, variety):
    # d_0(theta) raised by 1 leaves every digit nonnegative, so every sign
    # mask passes and coefficient 0 becomes 1 + dim g; only the closed form
    # catches it (for subregular in a degree below k = 3).
    rs = build("G", 2)
    args = ["hilbert", "-f", "G", "-r", "2", "--variety", variety, "--max-degree", "8"]
    assert invoke([*args, "--check"]).exit_code == 0
    skew_packed_kernel(monkeypatch, rs.theta_long, (0, 0), -1)
    result = invoke(args)
    assert result.exit_code == 0
    assert result.output.split(": ")[1].split()[:2] == ["15", "14"]
    result = invoke([*args, "--check"])
    assert result.exit_code == 4
    assert "Hilbert coefficient 0 = 15 != closed form 1 (nilcone)" in result.output


def test_hilbert_check_sees_a_wrong_subregular_degree_k(monkeypatch):
    # a_3((3, 0)) raised by 1 keeps every digit nonnegative and takes
    # dim L((3, 0)) = 77 from coefficient k = 3; only degree k sees it.
    rs = build("G", 2)
    args = ["hilbert", "-f", "G", "-r", "2", "--variety", "subregular",
            "--max-degree", "8", "--check"]
    assert invoke(args).exit_code == 0
    skew_packed_kernel(monkeypatch, (3, 0), rs.theta_short, -1)
    result = invoke(args)
    assert result.exit_code == 4
    assert ("Hilbert coefficient 3 = 462 != closed form 539 "
            "(nilcone - dim L(theta_s))") in result.output
