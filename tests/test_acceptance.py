"""Acceptance suite: one test per criterion, exact values, timed.

Every check below is exact integer equality (tolerance zero).  Each test
prints a single pass line; a failed assertion is the fail line.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they pass.
"""

import itertools
import json
import time
from math import comb

import pytest

from cli_runner import invoke
from nilcone import (
    GradedCalculator,
    WeightMultiplicities,
    build,
    kostant_mult,
)
from nilcone.partition import PartitionTable
from root_lattice import dominance_le
from weyl_oracle import dominant_up_to_height, saturation

from test_graded import quadric_cone_dimensions, symmetric_power_oracle

SWEEP_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]


class _Timer:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, f"ran {elapsed:.1f}s, budget {self.budget}s"
        return elapsed


def _report(name, timer):
    elapsed = timer.check()
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def calcs():
    return {key: GradedCalculator(build(*key)) for key in SWEEP_TYPES}


def test_criterion_01_kconst_table():
    timer = _Timer(5.0)
    expected = (
        {("A", l): l for l in range(1, 9)}
        | {("B", l): l for l in range(2, 9)}
        | {("C", l): 2 * (l - 1) for l in range(2, 9)}
        | {("D", l): 2 * l - 3 for l in range(3, 9)}
        | {("G", 2): 3, ("F", 4): 8, ("E", 6): 11, ("E", 7): 17, ("E", 8): 29}
    )
    result = invoke(["kconst", "--all", "--format", "json"])
    assert result.exit_code == 0
    entries = json.loads(result.output)["entries"]
    got = {(e["family"], e["rank"]): e["k"] for e in entries}
    assert got == expected
    _report("criterion 1 (k-constant table, incl. E_8)", timer)


def test_criterion_02_a2_tilting_euler():
    timer = _Timer(1.0)
    result = invoke(["tilting-example", "--format", "json"])
    assert result.exit_code == 0
    table = {
        tuple(e["lambda"]): e["euler_mult"]
        for e in json.loads(result.output)["entries"]
    }
    assert table[(0, 0)] == 1
    assert table[(3, 0)] == -1
    _report("criterion 2 (A_2 tilting Euler characteristic)", timer)


def test_criterion_03_subregular_totals(calcs):
    timer = _Timer(60.0)
    for key, calc in calcs.items():
        rs = calc.rs
        for lam in dominant_up_to_height(rs, 10):
            mults = WeightMultiplicities(rs, lam)
            expected = mults.at((0,) * rs.rank) - mults.at(rs.theta_short)
            total = sum(calc.series("t", [lam])[0].values())
            assert total == expected, (key, lam)
    _report("criterion 3 (subregular totals = m(0) - m(theta), height <= 10)", timer)


def test_criterion_04_exact_sequence_positivity(calcs):
    timer = _Timer(60.0)
    for key, calc in calcs.items():
        for lam in dominant_up_to_height(calc.rs, 10):
            d = calc.series("d", [lam])[0]
            a = calc.series("a", [lam])[0]  # raises if any a_n < 0
            t = calc.series("t", [lam])[0]  # raises if any t_n < 0
            for n in set(d) | set(a) | set(t):
                assert d.get(n, 0) == t.get(n, 0) + a.get(n, 0), (key, lam, n)
                assert t.get(n, 0) >= 0 and a.get(n, 0) >= 0
    _report("criterion 4 (d = t + a with t, a >= 0)", timer)


def test_criterion_05_nilcone_totals(calcs):
    timer = _Timer(60.0)
    for key, calc in calcs.items():
        rs = calc.rs
        for lam in dominant_up_to_height(rs, 10):
            expected = WeightMultiplicities(rs, lam).at((0,) * rs.rank)
            total = sum(calc.series("d", [lam])[0].values())
            assert total == expected, (key, lam)
    _report("criterion 5 (nilcone totals = m(0), height <= 10)", timer)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2)])
def test_criterion_06_symmetric_power_oracle(family, rank):
    timer = _Timer(60.0)
    calc = GradedCalculator(build(family, rank))
    rs = calc.rs
    for n in range(7):
        oracle = symmetric_power_oracle(rs, n)
        bound = tuple(n * c for c in rs.theta_long)
        for lam in rs.dominant_below(bound):
            assert calc.series("d", [lam])[0].get(n, 0) == oracle.get(lam, 0), (lam, n)
        assert all(dominance_le(rs, lam, bound) for lam in oracle)
    _report(f"criterion 6 (S^n oracle = Hesselink, {family}_{rank}, n <= 6)", timer)


def test_criterion_07_freudenthal_equals_kostant():
    timer = _Timer(120.0)
    for family, rank in SWEEP_TYPES:
        rs = build(family, rank)
        for lam in dominant_up_to_height(rs, 8):
            table = WeightMultiplicities(rs, lam)
            for mu in saturation(rs, lam):
                assert table.at(mu) == kostant_mult(rs, lam, mu), (
                    family, rank, lam, mu,
                )
    _report("criterion 7 (Freudenthal = Kostant on saturations, height <= 8)", timer)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2)])
def test_criterion_08_generating_identity(family, rank):
    timer = _Timer(60.0)
    rs = build(family, rank)
    table = PartitionTable(rs)
    max_h = 8
    series = {((0,) * rank, 0): 1}
    for alpha in rs.positive_root_coords:
        h_alpha = sum(alpha)
        new = {}
        for (x, n), coeff in series.items():
            m = 0
            while sum(x) + m * h_alpha <= max_h:
                key = (tuple(a + m * b for a, b in zip(x, alpha)), n + m)
                new[key] = new.get(key, 0) + coeff
                m += 1
        series = new
    for x in itertools.product(range(max_h + 1), repeat=rank):
        if sum(x) > max_h:
            continue
        coeffs = table.poly(x)
        for n in range(max_h + 1):
            expected = series.get((x, n), 0)
            assert (coeffs[n] if n < len(coeffs) else 0) == expected, (x, n)
    _report(f"criterion 8 (generating identity, {family}_{rank}, height <= 8)", timer)


def test_criterion_09_degenerate_a1(calcs):
    timer = _Timer(30.0)
    calc = calcs[("A", 1)]
    for lam in dominant_up_to_height(calc.rs, 10):
        expected = {0: 1} if lam == (0,) else {}
        assert calc.series("t", [lam])[0] == expected, lam
    assert calc.hilbert_series("nilcone", 4) == [1, 3, 5, 7, 9]
    assert calc.hilbert_series("nilcone", 4) == quadric_cone_dimensions(4)
    _report("criterion 9 (A_1: subregular ring is a point; quadric cone)", timer)


def test_criterion_10_a2_hilbert_series(calcs):
    timer = _Timer(30.0)

    def c8(m):
        return comb(m + 7, 7) if m >= 0 else 0

    oracle = [c8(n) - c8(n - 2) - c8(n - 3) + c8(n - 5) for n in range(7)]
    assert calcs[("A", 2)].hilbert_series("nilcone", 6) == oracle
    _report("criterion 10 (A_2 nilcone Hilbert series vs series oracle)", timer)


def test_criterion_11_isomorphic_types():
    timer = _Timer(60.0)
    calc_b, calc_c = GradedCalculator(build("B", 2)), GradedCalculator(build("C", 2))
    assert calc_b.k == calc_c.k
    for lam in dominant_up_to_height(calc_b.rs, 8):
        assert calc_b.series("t", [lam]) == calc_c.series("t", [(lam[1], lam[0])]), lam

    calc_a, calc_d = GradedCalculator(build("A", 3)), GradedCalculator(build("D", 3))
    assert calc_a.k == calc_d.k
    for lam in dominant_up_to_height(calc_a.rs, 6):
        assert calc_a.series("t", [lam]) == calc_d.series(
            "t", [(lam[1], lam[0], lam[2])]), lam
    _report("criterion 11 (B_2 = C_2 and A_3 = D_3 under relabelling)", timer)
