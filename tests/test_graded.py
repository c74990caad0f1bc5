"""Graded multiplicity formulas, cohomology tables, Hilbert series."""

import itertools

import pytest

from nilcone import (
    ModuleKind,
    Variety,
    WeightMultiplicities,
    WrongRootSystemError,
    a2_tilting_euler,
    build,
    euler_induced,
    weyl_dim,
)
from nilcone.graded import parallel_series


def symmetric_power_oracle(rs, n):
    """Multiplicity of each L(lam) in degree n of the nilcone ring, computed
    without the alternating Weyl sum: expand the weight multiset of the n-th
    symmetric power of the positive-root space and resolve every weight
    through the dominant chamber."""
    counts = {}
    for combo in itertools.combinations_with_replacement(
        rs.positive_roots, n
    ):
        weight = (0,) * rs.rank
        for c in combo:
            weight = tuple(a + b for a, b in zip(weight, c))
        resolved = euler_induced(rs, weight)
        if resolved is None:
            continue
        sign, lam = resolved
        counts[lam] = counts.get(lam, 0) + sign
    return {lam: v for lam, v in counts.items() if v}


# -- euler kernel -------------------------------------------------------------

def test_euler_mult_trivial(calculators):
    calc = calculators("A", 2)
    assert calc._euler_profile((0, 0), (0, 0)) == {0: 1}


def test_euler_mult_a2_adjoint(calculators):
    calc = calculators("A", 2)
    assert calc._euler_profile((1, 1), (0, 0)) == {1: 1, 2: 1}


def test_euler_mult_a1(calculators):
    calc = calculators("A", 1)
    assert calc._euler_profile((2,), (0,)) == {1: 1}


def test_euler_mult_off_lattice_is_zero(calculators):
    calc = calculators("A", 2)
    assert calc._euler_profile((1, 0), (0, 0)) == {}


# -- named multiplicities ------------------------------------------------------

def test_nilcone_constants(calculators):
    calc = calculators("A", 2)
    assert calc.nilcone_mult((0, 0), 0) == 1
    for n in range(1, 6):
        assert calc.nilcone_mult((0, 0), n) == 0


def test_nilcone_a2_adjoint(calculators):
    calc = calculators("A", 2)
    assert calc.nilcone_series((1, 1)) == {1: 1, 2: 1}
    zero_mult = WeightMultiplicities(calculators("A", 2).rs, (1, 1)).at((0, 0))
    assert sum(calc.nilcone_series((1, 1)).values()) == zero_mult == 2


def test_nilcone_a1_is_delta(calculators):
    calc = calculators("A", 1)
    for m in range(7):
        lam = (2 * m,)
        assert calc.nilcone_series(lam) == ({m: 1} if m else {0: 1})


def test_induced_vanishes_below_shift(calculators):
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        calc = calculators(family, rank)
        for lam in calc.rs.dominant_up_to_height(4):
            for i in range(calc.k):
                assert calc.induced_odd_mult(lam, i) == 0


def test_induced_a2_adjoint(calculators):
    calc = calculators("A", 2)
    assert calc.k == 2
    assert calc.induced_odd_mult((1, 1), 2) == 1
    assert calc.induced_series((1, 1)) == {2: 1}


def test_induced_a1_trivial_module(calculators):
    calc = calculators("A", 1)
    assert calc.k == 1
    for i in range(6):
        assert calc.induced_odd_mult((0,), i) == 0


def test_subregular_trivial(calculators):
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        calc = calculators(family, rank)
        assert calc.subregular_series((0,) * rank) == {0: 1}


def test_subregular_a2_adjoint(calculators):
    calc = calculators("A", 2)
    assert calc.subregular_series((1, 1)) == {1: 1}
    mults = WeightMultiplicities(calc.rs, (1, 1))
    total = sum(calc.subregular_series((1, 1)).values())
    assert total == mults.at((0, 0)) - mults.at(calc.rs.theta_short) == 1


def test_subregular_a1_vanishes_off_zero(calculators):
    calc = calculators("A", 1)
    for m in range(1, 8):
        assert calc.subregular_series((2 * m,)) == {}
        assert calc.subregular_series((2 * m - 1,)) == {}


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2)])
def test_symmetric_power_oracle_matches_hesselink(calculators, family, rank):
    calc = calculators(family, rank)
    rs = calc.rs
    for n in range(0, 7):
        oracle = symmetric_power_oracle(rs, n)
        bound = tuple(n * c for c in rs.theta_long)
        for lam in rs.dominant_below(bound):
            assert calc.nilcone_mult(lam, n) == oracle.get(lam, 0), (lam, n)
        # the oracle found nothing outside the sweep bound
        for lam in oracle:
            assert rs.dominance_le(lam, bound)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_exact_sequence_decomposition_height_10(calculators, family, rank):
    # d_n = t_n + a_n with every term nonnegative, and the totals match
    # the weight multiplicity identities.
    calc = calculators(family, rank)
    rs = calc.rs
    for lam in rs.dominant_up_to_height(10):
        d = calc.nilcone_series(lam)
        a = calc.induced_series(lam)
        t = calc.subregular_series(lam)
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
    for lam in rs.dominant_up_to_height(8):
        h = rs.height(lam)
        for series in (calc.nilcone_series(lam), calc.subregular_series(lam)):
            for n in series:
                assert n <= h


# -- cohomology tables ---------------------------------------------------------

def test_trivial_table_a1(calculators):
    table = calculators("A", 1).cohomology_table(ModuleKind.TRIVIAL, 2, 4)
    assert table.row(0) == {(0,): 1}
    assert table.row(1) == {}
    assert table.row(2) == {(2,): 1}
    assert table.row(3) == {}
    assert table.row(4) == {(4,): 1}
    assert table.parity_ok()


def test_tilting_table_parity(calculators):
    for family, rank in [("A", 1), ("A", 2), ("B", 2)]:
        table = calculators(family, rank).cohomology_table(ModuleKind.TILTING, 2, 6)
        assert table.parity_ok()
        for i in range(0, 7, 2):
            for mult in table.row(i).values():
                assert mult >= 0


def test_induced_wall_table_parity(calculators):
    table = calculators("A", 2).cohomology_table(ModuleKind.INDUCED_WALL, 2, 6)
    assert table.parity_ok()
    for i in range(0, 7, 2):
        assert table.row(i) == {}
    # first nonzero odd row sits at 2k - 1 = 3
    assert table.row(1) == {}
    assert table.row(3) != {}


def test_weyl_table_odd_rows_copy_trivial(calculators):
    for family, rank in [("A", 1), ("A", 2), ("B", 2)]:
        calc = calculators(family, rank)
        weyl_t = calc.cohomology_table(ModuleKind.WEYL, 2, 7)
        trivial = calc.cohomology_table(ModuleKind.TRIVIAL, 2, 7)
        tilting = calc.cohomology_table(ModuleKind.TILTING, 2, 7)
        for i in range(0, 7):
            if i % 2 == 0:
                assert weyl_t.row(i) == tilting.row(i)
            elif i - 1 >= 0:
                assert weyl_t.row(i) == trivial.row(i - 1)


def test_simple_table_a2(calculators):
    table = calculators("A", 2).cohomology_table(ModuleKind.SIMPLE, 2, 5)
    assert table.parity_ok()
    # H^1 = d_0 + a_1: only L(0) with multiplicity 1 (a_1 = 0 since k = 2)
    assert table.row(1) == {(0, 0): 1}
    assert table.row(0) == {} and table.row(2) == {}


def test_simple_table_assembles_d_and_a(calculators):
    calc = calculators("B", 2)
    table = calc.cohomology_table(ModuleKind.SIMPLE, 2, 9)
    for lam in calc.sweep_domain(2):
        d = calc.nilcone_series(lam)
        a = calc.induced_series(lam)
        for i in range(0, 4):
            expected = d.get(i, 0) + a.get(i + 1, 0)
            assert table.row(2 * i + 1).get(lam, 0) == expected


def test_euler_consistency_weyl_kind(calculators):
    # even total minus odd total per weight equals -m_lam(theta)
    calc = calculators("A", 2)
    max_i = 25
    table = calc.cohomology_table(ModuleKind.WEYL, 2, max_i)
    for lam in calc.sweep_domain(2):
        even = sum(table.row(i).get(lam, 0) for i in range(0, max_i + 1, 2))
        odd = sum(table.row(i).get(lam, 0) for i in range(1, max_i + 1, 2))
        assert even - odd == -WeightMultiplicities(calc.rs, lam).at(
            calc.rs.theta_short
        )


def test_table_json_and_csv_shape(calculators):
    table = calculators("A", 1).cohomology_table(ModuleKind.TRIVIAL, 1, 2)
    doc = table.to_json_dict()
    assert set(doc) == {"family", "rank", "kind", "k", "degree_convention", "rows"}
    assert doc["family"] == "A" and doc["rank"] == 1 and doc["kind"] == "trivial"
    assert doc["rows"][0] == {"i": 0, "entries": [{"lambda": [0], "mult": 1}]}
    rows = list(table.iter_csv_rows())
    assert (0, "0", 1) in rows and (2, "2", 1) in rows


# -- the A_2 tilting example ----------------------------------------------------

def test_tilting_euler_values(systems):
    rs = systems("A", 2)
    assert a2_tilting_euler(rs, (0, 0)) == 1
    assert a2_tilting_euler(rs, (3, 0)) == -1
    assert a2_tilting_euler(rs, (0, 3)) == 0


def test_tilting_euler_wrong_type(systems):
    with pytest.raises(WrongRootSystemError):
        a2_tilting_euler(systems("B", 2), (0, 0))
    with pytest.raises(WrongRootSystemError):
        a2_tilting_euler(build("A", 3), (0, 0, 0))


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


def test_hilbert_a1_nilcone_vs_quadric_oracle(calculators):
    calc = calculators("A", 1)
    assert calc.hilbert_series(Variety.NILCONE, 4) == quadric_cone_dimensions(4)
    assert calc.hilbert_series(Variety.NILCONE, 4) == [1, 3, 5, 7, 9]


def test_hilbert_a1_subregular_is_point(calculators):
    calc = calculators("A", 1)
    assert calc.hilbert_series(Variety.SUBREGULAR, 5) == [1, 0, 0, 0, 0, 0]


def test_hilbert_a2_nilcone_vs_series_oracle(calculators):
    # dim C[N]_n for sl_3: coefficients of (1-t^2)(1-t^3) / (1-t)^8,
    # expanded independently via binomials.
    from math import comb

    def coefficient(n):
        def c8(m):
            return comb(m + 7, 7) if m >= 0 else 0

        return c8(n) - c8(n - 2) - c8(n - 3) + c8(n - 5)

    calc = calculators("A", 2)
    assert calc.hilbert_series(Variety.NILCONE, 6) == [coefficient(n) for n in range(7)]
    assert calc.hilbert_series(Variety.NILCONE, 1)[1] == 8


def test_hilbert_a2_subregular_degree_one(calculators):
    # degree 1 of the subregular ring: only t_1(theta) = 1 survives, dim 8
    # minus nothing else; total = 8 - 0? compute directly instead:
    calc = calculators("A", 2)
    coeffs = calc.hilbert_series(Variety.SUBREGULAR, 3)
    assert coeffs[0] == 1
    # cross-check each coefficient against the series totals
    for n in range(4):
        total = 0
        for lam in calc.rs.dominant_below(tuple(n * c for c in calc.rs.theta_long)):
            t = calc.subregular_series(lam).get(n, 0)
            if t:
                total += t * weyl_dim(calc.rs, lam)
        assert coeffs[n] == total


# -- closed forms from the exponents -------------------------------------------------

def exponents(rs):
    """The exponents of the Weyl group, read off the root system alone: the
    partition dual to the number of positive roots of each height
    (Kostant 1959)."""
    by_height = {}
    for r in rs.positive_root_coords:
        by_height[sum(r)] = by_height.get(sum(r), 0) + 1
    counts = [by_height[h] for h in sorted(by_height)]
    return sorted(sum(1 for c in counts if c >= j) for j in range(1, rs.rank + 1))


def test_exponents_helper_examples(systems):
    assert exponents(systems("A", 3)) == [1, 2, 3]
    assert exponents(systems("G", 2)) == [1, 5]
    assert exponents(systems("D", 4)) == [1, 3, 3, 5]
    assert exponents(systems("E", 6)) == [1, 4, 5, 7, 8, 11]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                         ("G", 2), ("F", 4), ("E", 6)])
def test_adjoint_degrees_are_the_exponents(calculators, family, rank):
    # The adjoint module occurs in C[N] exactly in the degrees given by the
    # exponents, with their multiplicity (Kostant 1963).
    calc = calculators(family, rank)
    expected = {}
    for e in exponents(calc.rs):
        expected[e] = expected.get(e, 0) + 1
    assert calc.nilcone_series(calc.rs.theta_long) == expected


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_nilcone_hilbert_series_closed_form(calculators, family, rank):
    # C[N] is a complete intersection: its Hilbert series is
    # prod_i (1 - q^(e_i + 1)) / (1 - q)^dim g.
    from math import comb

    max_degree = 5
    calc = calculators(family, rank)
    dim_g = rank + 2 * calc.rs.num_positive_roots
    numerator = [1] + [0] * max_degree
    for e in exponents(calc.rs):
        numerator = [c - (numerator[n - e - 1] if n > e else 0)
                     for n, c in enumerate(numerator)]
    expected = [
        sum(numerator[k] * comb(n - k + dim_g - 1, dim_g - 1) for k in range(n + 1))
        for n in range(max_degree + 1)
    ]
    assert calc.hilbert_series(Variety.NILCONE, max_degree) == expected


# -- type isomorphisms ------------------------------------------------------------

def test_b2_c2_same_data_under_relabelling(calculators):
    calc_b = calculators("B", 2)
    calc_c = calculators("C", 2)
    assert calc_b.k == calc_c.k
    for lam in calc_b.rs.dominant_up_to_height(8):
        swapped = (lam[1], lam[0])
        assert calc_b.subregular_series(lam) == calc_c.subregular_series(swapped)
        assert calc_b.nilcone_series(lam) == calc_c.nilcone_series(swapped)


def test_a3_d3_same_data_under_relabelling(calculators):
    calc_a = calculators("A", 3)
    calc_d = calculators("D", 3)
    assert calc_a.k == calc_d.k
    for lam in calc_a.rs.dominant_up_to_height(6):
        relabelled = (lam[1], lam[0], lam[2])  # middle A_3 node is the D_3 fork
        assert calc_a.subregular_series(lam) == calc_d.subregular_series(relabelled)


# -- error paths ------------------------------------------------------------------
#
# Positivity of t_n is a theorem, so the violation branch can only be
# reached by sabotaging one side of the difference.

def test_subregular_negativity_is_a_hard_error(calculators, monkeypatch):
    from nilcone import PositivityViolationError
    from nilcone.graded import GradedCalculator

    calc = calculators("A", 2)
    monkeypatch.setattr(
        GradedCalculator, "induced_series", lambda self, lam: {1: 99}
    )
    with pytest.raises(PositivityViolationError) as exc:
        calc.subregular_mult((1, 1), 1)
    assert exc.value.weight == (1, 1) and exc.value.degree == 1
    with pytest.raises(PositivityViolationError):
        calc.subregular_series((1, 1))


def test_internal_negativity_is_a_hard_error(calculators, monkeypatch):
    from nilcone import InternalInconsistencyError
    from nilcone.graded import GradedCalculator

    calc = calculators("A", 2)
    monkeypatch.setattr(
        GradedCalculator, "_euler_profile", lambda self, lam, mu: {1: -1}
    )
    with pytest.raises(InternalInconsistencyError):
        calc.nilcone_mult((1, 1), 1)
    with pytest.raises(InternalInconsistencyError):
        calc.induced_odd_mult((1, 1), 3)
    with pytest.raises(InternalInconsistencyError):
        calc.nilcone_series((1, 1))
    with pytest.raises(InternalInconsistencyError):
        calc.induced_series((1, 1))


def test_negative_coefficient_from_the_packed_kernel_is_a_hard_error(
        calculators, monkeypatch):
    from nilcone import InternalInconsistencyError, PartitionTable, build, graded

    # P(0) - P(theta) = 1 - q - q^2 in A2: the kernel must hand the series
    # methods negative coefficients, not their residues mod 2^B.
    monkeypatch.setattr(graded, "dot_terms",
                        lambda rs, lam, mu: [(1, (0, 0)), (-1, (1, 1))])
    rs = build("A", 2)
    calc = graded.GradedCalculator(rs, table=PartitionTable(rs))
    assert calc._euler_profile((1, 1), (0, 0)) == {0: 1, 1: -1, 2: -1}
    with pytest.raises(InternalInconsistencyError, match="= -1 < 0"):
        calc.nilcone_series((1, 1))
    with pytest.raises(InternalInconsistencyError, match="= -1 < 0"):
        calc.induced_series((1, 1))


# -- parallel sweeps -----------------------------------------------------------------

def test_parallel_series_matches_serial(calculators):
    calc = calculators("A", 2)
    lams = list(calc.sweep_domain(2))
    serial = parallel_series(calc, Variety.SUBREGULAR, lams, jobs=1)
    parallel = parallel_series(calc, Variety.SUBREGULAR, lams, jobs=2)
    assert serial == parallel
    assert [lam for lam, _ in parallel] == lams


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.mark.parametrize("jobs,cpus,expected", [
    (1000, 3, [3]),    # capped by the usable CPUs
    (1000, 64, [5]),   # capped by the number of weights
    (2, 64, [2]),
    (1000, 1, []),     # one usable CPU of 64: no pool at all
    (1000, None, []),  # no affinity call and CPU count unknown: one
])
def test_parallel_series_caps_the_pool(calculators, monkeypatch, jobs, cpus,
                                       expected):
    import concurrent.futures
    import os

    from nilcone import graded

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    # also where a module-level import would have bound it, so no version
    # of parallel_series can start a real pool of this size here
    monkeypatch.setattr(graded, "ProcessPoolExecutor", _InlinePool, raising=False)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        # The affinity mask allows `cpus` of the machine's 64.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(_InlinePool, "started", [])
    calc = calculators("A", 2)
    lams = list(calc.sweep_domain(2))
    assert len(lams) == 5
    result = parallel_series(calc, Variety.NILCONE, lams, jobs=jobs)
    assert _InlinePool.started == expected
    assert result == parallel_series(calc, Variety.NILCONE, lams, jobs=1)


def test_parallel_series_falls_back_to_the_cpu_count(calculators, monkeypatch):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_InlinePool, "started", [])
    calc = calculators("A", 2)
    parallel_series(calc, Variety.NILCONE, list(calc.sweep_domain(2)), jobs=1000)
    assert _InlinePool.started == [3]
