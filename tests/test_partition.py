"""Partition counts against brute force and the generating identity."""

import itertools
import math
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone import (
    GradedCalculator,
    PartitionTable,
    StaleCacheError,
    build,
    dot_terms,
    kostant_mult,
    weyl_dim,
)
from nilcone.graded import PROFILE, fold
from nilcone.partition import (
    PARTITION_CACHE_SCHEMA,
    _coefficient_bound,
    _Digits,
    _Packing,
    cache_path,
    load_table,
    low_degrees,
)
from nilcone.rootsys import vadd
from cache_file import digest, rewrite
from root_lattice import to_root_basis
from tuple_dp import TupleDP
from weyl_oracle import saturation


def brute_force_counts(rs, n):
    """Count n-element positive-root multisets per sum, by enumeration.

    Independent of the DP: generates every multiset explicitly.
    """
    counts = {}
    for combo in itertools.combinations_with_replacement(
        rs.positive_root_coords, n
    ):
        total = tuple(sum(c) for c in zip(*combo)) if combo else (0,) * rs.rank
        counts[total] = counts.get(total, 0) + 1
    return counts


def test_trivial_values():
    rs = build("A", 2)
    table = PartitionTable(rs)
    assert table.poly((0, 0)) == (1,)
    # n = 1: theta itself; n = 2: {alpha_1, alpha_2}.
    assert table.poly((1, 1)) == (0, 1, 1)
    assert table.poly((-1, 0)) == ()
    assert sum(table.poly((0, 0))) == 1
    assert sum(table.poly((1, 1))) == 2
    assert sum(table.poly((1, 0))) == 1


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_brute_force_equivalence_height_6(family, rank):
    rs = build(family, rank)
    table = PartitionTable(rs)
    max_h = 6
    by_n = {n: brute_force_counts(rs, n) for n in range(max_h + 1)}
    # every x with height <= 6 in a covering box
    box = range(0, max_h + 1)
    for x in itertools.product(box, repeat=rank):
        if sum(x) > max_h:
            continue
        coeffs = table.poly(x)
        assert coeffs == tuple(by_n[n].get(x, 0) for n in range(sum(x) + 1)), x
        # No multiset of more than height(x) roots sums to x.
        assert all(x not in by_n[n] for n in range(sum(x) + 1, max_h + 1)), x


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_generating_function_identity_height_8(family, rank):
    # Expand prod_{alpha > 0} 1 / (1 - e^alpha t) truncated to height 8 by
    # straight series multiplication and compare every coefficient.
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
    box = range(0, max_h + 1)
    for x in itertools.product(box, repeat=rank):
        if sum(x) > max_h:
            continue
        coeffs = table.poly(x)
        for n in range(max_h + 1):
            expected = series.get((x, n), 0)
            assert (coeffs[n] if n < len(coeffs) else 0) == expected, (x, n)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_monotone_support(family, rank):
    rs = build(family, rank)
    table = PartitionTable(rs)
    h_theta = sum(rs.theta_long_coords)
    for x in itertools.product(range(0, 7), repeat=rank):
        for n, c in enumerate(table.poly(x)):
            if c > 0:
                assert math.ceil(sum(x) / h_theta) <= n <= sum(x)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2),
                                         ("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_poly_is_the_graded_counts(family, rank):
    rs = build(family, rank)
    table = PartitionTable(rs)
    max_h = 6 if rank == 2 else 5
    by_n = {n: brute_force_counts(rs, n) for n in range(max_h + 1)}
    for x in itertools.product(range(max_h + 1), repeat=rank):
        if sum(x) > max_h:
            continue
        coeffs = list(table.poly(x))
        assert coeffs == [by_n[n].get(x, 0) for n in range(sum(x) + 1)], x
    assert table.poly((-1,) + (2,) * (rank - 1)) == ()


def reference_poly(roots, j, x, memo):
    """P_j(x) by the sum over multiplicities, sum_m q^m P_{j-1}(x - m alpha_j):
    the recursion the table used before its two-term form."""
    if not any(x):
        return (1,)
    if j == 0:
        return ()
    if (j, x) not in memo:
        acc = [0] * (sum(x) + 1)
        y, m = x, 0
        while min(y) >= 0:
            for n, c in enumerate(reference_poly(roots, j - 1, y, memo), m):
                acc[n] += c
            y = tuple(a - b for a, b in zip(y, roots[j - 1]))
            m += 1
        memo[(j, x)] = tuple(acc) if acc[-1] else ()
    return memo[(j, x)]


def packed_level(roots, rank, j, height, xs):
    """{x: P_j(x)} from the packed DP as coefficient lists, [] for 0.

    P_j counts the first j roots only, so it is the top level of a
    packing over those roots; j = rank is the closed form q^height(x).
    """
    packing = _Packing(roots[:j], rank, height)
    top = packing.fill([packing.key(x) for x in xs])
    values = {x: top[packing.key(x)] for x in xs}
    return {x: list(packing.unpack(v, sum(x))) if v else [] for x, v in values.items()}


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_every_level_is_the_prefix_count(family, rank):
    # P_j over the first j roots, from the closed-form level j = rank up.
    rs = build(family, rank)
    roots = rs.positive_root_coords
    max_h = 5
    cone = [x for x in itertools.product(range(max_h + 1), repeat=rank)
            if sum(x) <= max_h]
    for j in range(rank, len(roots) + 1):
        counts = {}
        for n in range(max_h + 1):
            for combo in itertools.combinations_with_replacement(roots[:j], n):
                total = tuple(map(sum, zip(*combo))) if combo else (0,) * rank
                counts[total, n] = counts.get((total, n), 0) + 1
        got = packed_level(roots, rank, j, max_h, cone)
        for x in cone:
            coeffs = [counts.get((x, n), 0) for n in range(sum(x) + 1)]
            assert got[x] == (coeffs if any(coeffs) else []), (j, x)


def test_long_chain_keeps_the_stack_flat():
    # P(1200 alpha_1 + 1200 alpha_2): c copies of alpha_1 + alpha_2 and
    # 1200 - c of each simple root, so q^(2400 - c) for c = 0..1200.  The
    # alpha_1 + alpha_2 chain through it is longer than the recursion limit.
    assert sys.getrecursionlimit() < 1200
    table = PartitionTable(build("A", 2))
    assert table.poly((1200, 1200)) == (0,) * 1200 + (1,) * 1201


@pytest.mark.parametrize("family,rank", [("E", 6), ("F", 4)])
def test_poly_matches_the_sum_over_multiplicities(family, rank):
    rs = build(family, rank)
    table = PartitionTable(rs)
    memo = {}
    args = {arg for mu in ((0,) * rank, rs.theta_short)
            for _, arg in dot_terms(rs, rs.theta_long, mu)}
    assert len(args) > 20
    for x in sorted(args):
        assert table.poly(x) == reference_poly(rs.positive_root_coords,
                                               len(rs.positive_root_coords), x, memo), x


def test_closed_form_levels_are_not_memoized():
    # The backward pass collects keys for the levels j > rank only.
    rs = build("E", 7)
    zero = (0,) * rs.rank
    packing = _Packing(rs.positive_root_coords, rs.rank, sum(rs.theta_long_coords))
    keys = [packing.key(x) for mu in (zero, rs.theta_short)
            for _, x in dot_terms(rs, rs.theta_long, mu)]
    levels = packing.levels(keys)
    assert len(levels) == len(rs.positive_root_coords) - rs.rank
    assert all(levels)


def multiset_counts(roots, x):
    """{(j, n): number of n-multisets of the first j roots summing to x}.

    Enumerates every multiset explicitly, as a sequence of root indices
    that never increases, so the first index chosen is the largest one
    used; no memo and no recurrence are shared with either DP.
    """
    by_top = {}

    def walk(rest, limit, n, top):
        if not any(rest):
            by_top[top, n] = by_top.get((top, n), 0) + 1
            return
        for i in range(limit + 1):
            y = tuple(a - b for a, b in zip(rest, roots[i]))
            if min(y) >= 0:
                walk(y, i, n + 1, top or i + 1)

    walk(tuple(x), len(roots) - 1, 0, 0)
    return {(j, n): sum(c for (top, m), c in by_top.items() if m == n and top <= j)
            for j in range(len(roots) + 1) for n in range(sum(x) + 1)}


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                         ("F", 4), ("E", 6)])
def test_packed_levels_match_the_tuple_dp_and_brute_force(family, rank):
    # Every argument of the adjoint and --sweep 1 profiles, at every level j.
    rs = build(family, rank)
    roots = rs.positive_root_coords
    table = PartitionTable(rs)
    calc = GradedCalculator(rs, table=table)
    lams = calc.sweep_domain(1)
    assert rs.theta_long in lams
    targets = sorted({x for lam in lams for mu in ((0,) * rank, rs.theta_short)
                      for _, x in dot_terms(rs, lam, mu)})
    assert len(targets) >= 3
    height = sum(rs.theta_long_coords)
    reference = TupleDP(rs)
    counts = {x: multiset_counts(roots, x) for x in targets}
    for j in range(len(roots) + 1):
        got = packed_level(roots, rank, j, height, targets) if j >= rank else {}
        for x in targets:
            coeffs = [counts[x][j, n] for n in range(sum(x) + 1)]
            expected = coeffs if any(coeffs) else []
            assert list(reference.poly(j, x)) == expected, (j, x)
            if j >= rank:
                assert got[x] == expected, (j, x)
            if j == len(roots):
                assert list(table.poly(x)) == expected, x
    assert table.height_cutoff() == height  # no argument is taller than theta


def domain_term_lists(rs, sweep):
    """The dot_terms lists of every weight below sweep * theta, for
    mu = 0 and theta_s, and the height they are sized for."""
    height = sweep * sum(rs.theta_long_coords)
    lams = rs.dominant_below(tuple(sweep * c for c in rs.theta_long))
    lists = [dot_terms(rs, lam, mu) for lam in lams
             for mu in ((0,) * rs.rank, rs.theta_short)]
    return lists, height


def held(table):
    """{x: P(x) coefficients} of every value the table holds."""
    return dict(table._values)


def level_keys(packing, keys):
    """{j: set of keys} of the backward pass, for j = N, ..., rank + 1."""
    n_roots = len(packing.roots)
    return {n_roots - i: set(level) for i, level in enumerate(packing.levels(keys))}


@pytest.mark.parametrize("family,rank,sweep", [("A", 3, 1), ("B", 3, 1), ("C", 3, 1),
                                               ("D", 4, 1), ("F", 4, 1), ("E", 6, 1),
                                               ("G", 2, 24)])
def test_batch_fill_matches_one_at_a_time(family, rank, sweep):
    # One batch over a whole domain: the same totals as one sum at a time,
    # and the same keys at every level as the single arguments' passes
    # together and as the recursive tuple DP.
    rs = build(family, rank)
    lists, height = domain_term_lists(rs, sweep)
    batch, single = PartitionTable(rs), PartitionTable(rs)
    packing, got = batch.packed_sums(lists)
    want = [single.packed_sums([terms]) for terms in lists]
    # One packing for the batch: the one its tallest list takes alone.
    assert packing.height == height
    assert packing.bits == max(p.bits for p, _ in want)
    assert [packing.balanced(total, height) for total in got] == \
        [p.balanced(total, p.height) for p, [total] in want]
    args = {x for terms in lists for _, x in terms}
    key = packing.key
    keys = level_keys(packing, [key(x) for x in args])
    union = {j: set() for j in keys}
    for x in args:
        for j, level in level_keys(packing, [key(x)]).items():
            union[j] |= level
    assert keys == union
    reference = TupleDP(rs)
    for x in args:
        reference.poly(len(rs.positive_root_coords), x)
    assert keys == {j: {key(x) for x in level} for j, level in reference.memo.items()}
    assert sum(map(len, keys.values())) > len(lists)
    # The values are held for the cache records as before.
    assert batch.unsaved and batch.height_cutoff() == single.height_cutoff()
    assert held(batch) == held(single)


def kostant_pairs(rs, top):
    """(lam, mu) for every lam dominant below top and mu any weight of the
    W-orbits below lam: most mu are not dominant, so some digits of
    E(lam, mu; q) are negative."""
    return [(lam, mu) for lam in rs.dominant_below(top) for mu in saturation(rs, lam)]


def low_digits_of_full_sums(rs, pairs, m):
    """The balanced digits n <= m of E(lam, mu; q) for each (lam, mu),
    from one full packed_sums batch of their dot_terms lists."""
    lists = [dot_terms(rs, lam, mu) for lam, mu in pairs]
    packing, totals = PartitionTable(rs).packed_sums(lists)
    digits = [{n: c for n, c in packing.balanced(total, packing.height).items()
               if n <= m} for total in totals]
    return digits, packing


def fold_digits(rs, pairs, m):
    """The balanced digits n <= m of E(lam, mu; q) for each (lam, mu),
    read off graded.fold, and the fold's digit packing."""
    mus = sorted({mu for _, mu in pairs})
    digits, folded = fold(rs, m, mus)
    profiles = dict(zip(mus, folded))
    return [digits.balanced(profiles[mu].get(lam, 0), m) for lam, mu in pairs], digits


@pytest.mark.parametrize("family,rank,degrees", [
    ("A", 1, range(13)), ("A", 2, range(9)), ("A", 3, range(6)), ("A", 4, range(4)),
    ("B", 3, range(5)), ("G", 2, range(13)), ("F", 4, [4]), ("E", 6, [3]),
])
def test_truncated_sums_are_the_low_digits_of_the_full_sums(family, rank, degrees):
    # The fold's profile of each lam gives, in its digits 0..m, the
    # balanced digits 0..m of the full batch: over the Hilbert domain below
    # m * theta (both mus) and over Kostant pairs with non-dominant mu,
    # where digits go negative.  No folded lam outside the domain has a
    # nonzero d digit, or a nonzero a_i = digit i - k of E(lam, theta_s)
    # with i <= m.
    rs = build(family, rank)
    zero, k = (0,) * rank, GradedCalculator(rs).k
    for m in degrees:
        top = tuple(m * c for c in rs.theta_long)
        domain = rs.dominant_below(top)
        pairs = [(lam, mu) for lam in domain for mu in (zero, rs.theta_short)]
        if m <= 2:
            pairs += kostant_pairs(rs, top)
        want, packing = low_digits_of_full_sums(rs, pairs, m)
        got, digits = fold_digits(rs, pairs, m)
        assert got == want, m
        assert digits.bits <= packing.bits
        if 1 <= m <= 2 and rank > 1:  # e.g. A2: E((1, 1), (-2, 1); q) = -q
            assert min(c for d in want for c in d.values()) < 0
        _, (d, e) = fold(rs, m, [zero, rs.theta_short])
        assert set(d) <= set(domain)
        assert {lam for lam, v in e.items()
                if any(n + k <= m for n in digits.balanced(v, m))} <= set(domain)


@pytest.mark.parametrize("family,rank,m", [
    ("A", 1, 8), ("A", 2, 5), ("B", 3, 4), ("G", 2, 12), ("F", 4, 3), ("E", 6, 3),
])
def test_fold_keeps_the_weyl_denominator_sum(family, rank, m):
    # D(nu), the product of (nu, alpha) over the positive roots, is 0 on
    # every wall and changes sign under each simple reflection, so the
    # fold, which moves x + mu + rho to lam + rho by a w of sign (-1)^w,
    # keeps sum D(nu) P(x) with D(lam + rho) = dim L(lam) D(rho): an
    # exact integer identity that takes no chamber walk.
    rs = build(family, rank)

    def denominator(nu):
        return math.prod(sum(map(operator.mul, row, nu)) for row in rs.pairing_rows)

    assert denominator(rs.rho) == rs.rho_pairing_product
    _, keys, values = low_degrees(rs, m)
    mus = [(0,) * rank, rs.theta_short]
    _, folded = fold(rs, m, mus)
    for mu, profile in zip(mus, folded):
        points = zip(*keys.columns(values, vadd(mu, rs.rho)))
        unfolded = sum(denominator(nu) * v for nu, v in zip(points, values.values()))
        quotient, rest = divmod(unfolded, rs.rho_pairing_product)
        assert rest == 0
        assert sum(weyl_dim(rs, lam) * v for lam, v in profile.items()) == quotient


def test_truncated_fill_is_narrower_and_smaller():
    # G2 to degree 24: 25 fields of bits(C(6 + 23, 24)) + 1 = 18 bits,
    # where the full batch needs 121 fields of 27 bits; and the forward
    # pass holds only the sums of at most 24 roots, fewer entries than
    # the full fill of the domain reaches, each the low digits of its
    # full value.  Every other x up to height 120 has no digit n <= 24.
    rs, m = build("G", 2), 24
    lists, height = domain_term_lists(rs, m)
    table = PartitionTable(rs)
    full, _ = table.packed_sums(lists)
    digits, keys, packed = low_degrees(rs, m)
    # Keyed by weight coordinates: read back in root coordinates.
    values = {to_root_basis(rs, w): v
              for w, v in zip(zip(*keys.columns(packed, (0, 0))), packed.values())}
    assert (height, full.bits) == (120, 27)
    assert digits.bits == math.comb(6 + 23, 24).bit_length() + 1 == 18
    reached = full.fill([full.key(x) for terms in lists for _, x in terms])
    assert (len(values), len(reached)) == (len(packed), 2425) == (2077, 2425)
    assert all(values.values())
    # Every x that m roots reach: each coordinate is at most m times
    # theta's, (3, 2).
    cone = [x for x in itertools.product(range(3 * m + 1), range(2 * m + 1))
            if sum(x) <= height]
    assert set(values) <= set(cone)
    packing, exact = table.packed_sums([[(1, x)] for x in cone])
    for x, value in zip(cone, exact):
        assert digits.unpack(values.get(x, 0), m) == packing.unpack(value, m), x


@pytest.mark.parametrize("family,rank,m", [
    ("A", 1, 10), ("A", 2, 8), ("A", 4, 4), ("B", 2, 10), ("B", 3, 5), ("C", 3, 5),
    ("C", 4, 3), ("D", 4, 4), ("D", 5, 3), ("G", 2, 30), ("F", 4, 5), ("E", 6, 4),
    ("E", 7, 3), ("E", 8, 3),
])
def test_moving_keys_form_one_run_per_line(family, rank, m, monkeypatch):
    # At the start of low_degrees' pass over alpha, its moving keys are
    # the sums of fewer than m of the roots before alpha.  Counted here in
    # root coordinates, by the fewest earlier roots that reach each sum,
    # they form one run on every alpha-line: each line has one walk, and
    # the order of the walks cannot change the values.
    from nilcone import partition

    rs = build(family, rank)
    fewest = {(0,) * rank: 0}
    for alpha in rs.positive_root_coords:
        i = next(j for j, a in enumerate(alpha) if a)
        lines = {}  # each moving x as base + t alpha: {base: [t, ...]}
        for x, n in fewest.items():
            if n < m:
                t = x[i] // alpha[i]
                lines.setdefault(tuple(c - t * a for c, a in zip(x, alpha)), []).append(t)
        for steps in lines.values():
            assert max(steps) - min(steps) + 1 == len(steps)
        for x in sorted(fewest, key=lambda x: x[i]):  # up each line
            y, n = x, fewest[x]
            while n < m:
                y, n = tuple(map(operator.add, y, alpha)), n + 1
                if fewest.get(y, m + 1) <= n:
                    break
                fewest[y] = n
    _, keys, values = low_degrees(rs, m)
    weights = zip(*keys.columns(values, (0,) * rank))
    assert {to_root_basis(rs, w) for w in weights} == set(fewest)
    # Walks in another order give the same values.
    rng = random.Random(0)
    monkeypatch.setattr(partition, "sorted", raising=False,
                        value=lambda keys, reverse: rng.sample(list(keys), len(keys)))
    assert low_degrees(rs, m)[2] == values


@pytest.mark.parametrize("held_from", ["narrower", "wider", "file"])
def test_truncated_batch_reads_held_values_and_stores_nothing(tmp_path, held_from):
    # Whatever the table holds, from a narrower or a wider batch or loaded
    # from a cache file, the fold's profiles are the low digits of the
    # table's own full sums, and hilbert_series reads the table not at all:
    # it leaves the table's values, unsaved flag and cache file as they were.
    rs, m = build("B", 3), 3
    table = PartitionTable(rs)
    table.packed_sums(domain_term_lists(rs, {"narrower": 1, "wider": m + 1,
                                             "file": 2}[held_from])[0])
    if held_from == "file":
        table.save(cache_path(rs.id, tmp_path))
        table = load_table(rs, tmp_path)
    before = dict(table._values)
    unsaved = table.unsaved
    files = {f: f.read_bytes() for f in tmp_path.iterdir()}
    calc = GradedCalculator(rs, table=table)
    fresh = GradedCalculator(rs)
    for variety in PROFILE:
        assert calc.hilbert_series(variety, m) == fresh.hilbert_series(variety, m)
    assert table._values == before
    assert table.unsaved == unsaved == (held_from != "file")
    table.persist()
    assert {f: f.read_bytes() for f in tmp_path.iterdir()} == files
    lists, height = domain_term_lists(rs, m)
    packing, totals = table.packed_sums(lists)
    want = [{n: c for n, c in packing.balanced(total, height).items() if n <= m}
            for total in totals]
    pairs = [(lam, mu) for lam in calc.sweep_domain(m)
             for mu in ((0,) * rs.rank, rs.theta_short)]
    assert fold_digits(rs, pairs, m)[0] == want


@pytest.mark.parametrize("loaded", [False, True], ids=["computed", "loaded"])
def test_widening_keeps_older_values_right(tmp_path, loaded):
    # A batch over the --sweep 1 domain, computed here or loaded from its
    # cache file, then the --sweep 2 batch, which reads every one of its
    # arguments at a wider width: the same totals and cache records as a
    # table that only ever saw the taller batch.
    rs = build("B", 3)
    short_lists, short_height = domain_term_lists(rs, 1)
    tall_lists, tall_height = domain_term_lists(rs, 2)
    table = PartitionTable(rs)
    narrow, _ = table.packed_sums(short_lists)
    if loaded:
        table.save(cache_path(rs.id, tmp_path))
        table = load_table(rs, tmp_path)
    assert narrow.height == table.height_cutoff() == short_height
    wide, got = table.packed_sums(tall_lists)
    assert wide.height == tall_height and wide.bits > narrow.bits
    reused = {x for terms in short_lists for _, x in terms}
    assert reused <= {x for terms in tall_lists for _, x in terms}
    fresh = PartitionTable(rs)
    assert got == fresh.packed_sums(tall_lists)[1]
    assert table.save(tmp_path / "widened.txt").read_text() == \
        fresh.save(tmp_path / "fresh.txt").read_text()


def test_sweep_domain_leaves_the_table_alone():
    rs = build("E", 6)
    table = PartitionTable(rs)
    assert len(GradedCalculator(rs, table=table).sweep_domain(2)) > 1
    assert table._values == {} and not table.unsaved


def test_batch_fill_needs_no_stack_headroom():
    # The E7 adjoint arguments reach every one of the N - rank = 56 DP levels;
    # the fill is iterative, so it runs with less headroom than that.
    rs = build("E", 7)
    lists, height = domain_term_lists(rs, 1)
    table = PartitionTable(rs)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        packing, sums = table.packed_sums(lists)
    finally:
        sys.setrecursionlimit(limit)
    keys = [packing.key(x) for terms in lists for _, x in terms]
    levels = packing.levels(keys)
    assert len(levels) == len(rs.positive_root_coords) - rs.rank
    assert set(keys) <= set(levels[0])
    reference = PartitionTable(rs)
    want = [reference.packed_sums([terms]) for terms in lists]
    assert [packing.balanced(total, height) for total in sums] == \
        [p.balanced(total, p.height) for p, [total] in want]


def test_a_batch_keeps_only_its_top_values():
    # The DP levels are the scratch space of one fill: once the batch is
    # done, the table holds its top values, a small part of the peak.
    import tracemalloc

    rs = build("E", 7)
    lists, height = domain_term_lists(rs, 1)
    table = PartitionTable(rs)
    tracemalloc.start()
    try:
        _, sums = table.packed_sums(lists)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sums) == len(lists)
    assert kept * 4 < peak, (kept, peak)


@pytest.mark.parametrize("family,rank,sweep", [("G", 2, 24), ("F", 4, 3), ("E", 7, 1)])
def test_width_covers_every_coefficient_reached(family, rank, sweep):
    rs = build(family, rank)
    table = PartitionTable(rs)
    lams = GradedCalculator(rs, table=table).sweep_domain(sweep)
    lists = [dot_terms(rs, lam, mu) for lam in lams for mu in ((0,) * rank, rs.theta_short)]
    packing, sums = table.packed_sums(lists)  # one width for the whole sweep
    assert len(sums) == len(lists)
    n_roots = len(rs.positive_root_coords)
    height = sweep * sum(rs.theta_long_coords)
    assert packing.height == height  # the top weight's own argument
    # never wider than the bound by the number of roots alone
    assert packing.bits <= math.comb(n_roots + height - 1, height).bit_length() + 1
    profiles = [packing.balanced(total, height) for total in sums]
    largest_e = max(abs(v) for profile in profiles for v in profile.values())
    # Every top value the fill of the domain reaches, not only the targets.
    top = packing.fill([packing.key(x) for terms in lists for _, x in terms])
    largest_p = max(max(packing.unpack(v, height)) for v in top.values())
    assert 0 < largest_e <= packing.bound < 2 ** (packing.bits - 1)
    assert 0 < largest_p <= packing.bound


@pytest.mark.parametrize("family,rank", [("A", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_coefficient_bound_counts_multisets(family, rank):
    # The smaller of C(N + H - 1, H) and the number of root multisets of
    # total height <= H, the latter by enumerating the multisets.
    rs = build(family, rank)
    roots = rs.positive_root_coords
    for height in range(7):
        low = sum(1 for n in range(height + 1)
                  for combo in itertools.combinations_with_replacement(roots, n)
                  if sum(map(sum, combo)) <= height)
        expected = min(math.comb(len(roots) + height - 1, height), low)
        assert _coefficient_bound([sum(r) for r in roots], height) == expected, height


@pytest.mark.parametrize("family,rank,height", [("A", 2, 3), ("G", 2, 120),
                                                ("F", 4, 33), ("E", 7, 17)])
def test_balanced_unpack_round_trips_the_extremes(family, rank, height):
    # The largest coefficient the width allows and the bound it was sized
    # from, with both signs; a width without its sign bit fails on the bound.
    rs = build(family, rank)
    packing = _Packing(rs.positive_root_coords, rs.rank, height)
    top = 2 ** (packing.bits - 1) - 1
    bound = packing.bound
    assert 0 < bound <= math.comb(len(rs.positive_root_coords) + height - 1, height)
    coeffs = [(top, -bound, bound, -top)[n % 4] for n in range(height + 1)]
    total = sum(c << (packing.bits * n) for n, c in enumerate(coeffs))
    assert packing.balanced(total, height) == dict(enumerate(coeffs))
    assert packing.balanced(-total, height) == {n: -c for n, c in enumerate(coeffs)}


_mask_packings = {}


@pytest.mark.parametrize("family,rank,height", [("A", 2, 3), ("G", 2, 120),
                                                ("F", 4, 12)])
@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(data=st.data())
def test_mask_sign_test_is_exact(family, rank, height, data):
    # nonnegative() agrees with reading the balanced digits, over digits up
    # to the width's extremes +-(2^(B-1) - 1), zero runs, vectors shifted
    # up by k fields (as q^k A is) and masks wider than the value.
    key = (family, rank, height)
    if key not in _mask_packings:
        rs = build(family, rank)
        _mask_packings[key] = _Packing(rs.positive_root_coords, rank, height)
    packing = _mask_packings[key]
    top = 2 ** (packing.bits - 1) - 1
    digit = st.one_of(st.sampled_from([0, 1, -1, top, -top]),
                      st.integers(-top, top))
    digits = data.draw(st.lists(digit, min_size=1, max_size=height + 1))
    shift = data.draw(st.integers(0, 4))
    fields = shift + len(digits) + data.draw(st.integers(0, 2))
    value = sum(c << (packing.bits * (n + shift)) for n, c in enumerate(digits))
    read = packing.balanced(value, fields - 1)
    assert read == {n + shift: c for n, c in enumerate(digits) if c}
    assert packing.nonnegative(value, fields) == all(c >= 0 for c in read.values())


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(bits=st.integers(2, 41), data=st.data())
def test_digit_reader_is_exact(bits, data):
    # digits() gives every nonzero coefficient of a packed vector, with
    # zero runs at the bottom, in the middle and at the top, digits up to
    # 2^bits - 1, and the value 0.
    reader, top = _Digits(bits), (1 << bits) - 1
    digit = st.one_of(st.sampled_from([0, 1, top]), st.integers(0, top))
    zeros = st.lists(st.just(0), max_size=6)
    coeffs = []
    for part in (zeros, st.lists(digit, max_size=12), zeros,
                 st.lists(digit, max_size=12), zeros):
        coeffs += data.draw(part)
    assert reader.digits(reader.pack(coeffs)) == {n: c for n, c in enumerate(coeffs) if c}
    assert reader.digits(0) == {}


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(bits=st.integers(2, 41), fields=st.integers(1, 30), data=st.data())
def test_weighted_digit_sums_are_exact(bits, fields, data):
    # weighted_digits() equals the weighted sum of each digit n < fields,
    # taken digit by digit, over values whose digits pass the sign test
    # (each up to 2^(bits - 1) - 1, zero runs included), with digits at
    # and above `fields` ignored, weights from 0 to past 2^64, and no
    # values at all.
    reader, top = _Digits(bits), (1 << (bits - 1)) - 1
    digit = st.one_of(st.sampled_from([0, 1, top]), st.integers(0, top))
    weight = st.one_of(st.sampled_from([0, 1, 2 ** 64 + 1]), st.integers(0, 10 ** 6))
    pairs = data.draw(st.lists(
        st.tuples(weight, st.lists(digit, max_size=fields + 2)), max_size=40))
    weights = [w for w, _ in pairs]
    values = [reader.pack(coeffs) for _, coeffs in pairs]
    expected = [sum(w * coeffs[n] for w, coeffs in pairs if n < len(coeffs))
                for n in range(fields)]
    assert reader.weighted_digits(weights, values, fields) == expected


def test_taller_argument_widens_the_fields():
    # P(a alpha_1 + b alpha_2) in A2 is sum_{c <= min(a, b)} q^(a + b - c).
    table = PartitionTable(build("A", 2))
    narrow, _ = table.packed_sums([[(1, (2, 1))]])
    assert table.poly((2, 1)) == (0, 0, 1, 1)
    assert 300 >= 2 ** (narrow.shifts[1] - 1)  # would overflow its field
    assert table.poly((300, 1)) == (0,) * 300 + (1, 1)
    # A held narrow value read by a taller batch, packed at its width.
    wide, [total] = table.packed_sums([[(1, (300, 1)), (-1, (2, 1))]])
    assert wide.shifts[1] > narrow.shifts[1]
    assert wide.balanced(total, 301) == {2: -1, 3: -1, 300: 1, 301: 1}
    assert table.poly((1, 300)) == (0,) * 300 + (1, 1)
    assert table.poly((2, 2)) == (0, 0, 1, 1, 1)
    assert table.poly((2, 1)) == (0, 0, 1, 1)


def test_field_widens_even_when_the_value_width_does_not():
    # C(N + H - 1, H) for A2 is 10 at H = 3 and 15 at H = 4: the same value
    # width, but a coordinate of 4 needs a third bit below its guard.
    rs = build("A", 2)
    table = PartitionTable(rs)
    narrow = _Packing(rs.positive_root_coords, rs.rank, 3)
    wide, _ = table.packed_sums([[(1, (4, 0))], [(1, (2, 2))]])
    assert table.poly((4, 0)) == (0, 0, 0, 0, 1)
    assert table.poly((2, 2)) == (0, 0, 1, 1, 1)
    assert wide.bits == narrow.bits
    assert wide.shifts[1] > narrow.shifts[1]


def test_repeated_arguments_are_refused():
    # The width bounds signed sums of distinct arguments, as a dot orbit's
    # are, so a list in which one occurs twice is refused before any work.
    table = PartitionTable(build("A", 2))
    with pytest.raises(ValueError, match="twice"):
        table.packed_sums([[(1, (1, 1))] * 10])
    with pytest.raises(ValueError, match="twice"):
        table.packed_sums([[(1, (0, 0))], [(-1, (1, 1)), (1, (0, 0)), (1, (1, 1))]])
    assert table._values == {} and not table.unsaved


def test_vectors_of_the_wrong_length_are_refused():
    rs = build("A", 2)
    table = PartitionTable(rs)
    for x in ((1, 1, 5), (-1, 0, 0), ()):
        with pytest.raises(ValueError, match="coordinates"):
            table.poly(x)
    with pytest.raises(ValueError, match="coordinates"):
        table.packed_sums([[(1, (1,))]])
    assert table._values == {}  # nothing a save would write
    with pytest.raises(ValueError, match="coordinates"):
        GradedCalculator(rs, table=table).series("d", [(1, 1, 1)])
    with pytest.raises(ValueError, match="coordinates"):
        kostant_mult(rs, (1, 1), (0, 0, 0), table=table)
    assert table._values == {}


def test_arguments_off_the_cone_are_refused(tmp_path):
    # a value stored for (-1, 2) would depend on its batch, and its record
    # would make the next load reject the whole file; (-1, -1) would raise
    # from math.comb
    rs = build("A", 2)
    table = load_table(rs, tmp_path)
    for batch in ([[(1, (-1, 2))]], [[(1, (1, 1))], [(1, (-1, 2))]],
                  [[(1, (-1, -1))]]):
        with pytest.raises(ValueError, match="2 nonnegative coordinates"):
            table.packed_sums(batch)
    assert table._values == {} and not table.unsaved
    assert table.poly((-1, 2)) == ()
    assert table.poly((1, 1)) == (0, 1, 1)
    table.persist()
    assert load_table(rs, tmp_path)._values == table._values


def test_a1_counts_are_delta():
    rs = build("A", 1)
    table = PartitionTable(rs)
    for m in range(8):
        assert table.poly((m,)) == (0,) * m + (1,)


def test_calculators_build_their_own_tables():
    # Nothing is shared behind the caller's back: a calculator or a Kostant
    # sum given no table works on a new one.
    rs = build("A", 2)
    first, second = GradedCalculator(rs), GradedCalculator(rs)
    assert first.table is not second.table
    assert first.series("d", [(1, 1)])[0] == {1: 1, 2: 1}
    assert kostant_mult(rs, (1, 1), (0, 0)) == 2
    assert first.table._values and second.table._values == {}


def test_concurrent_reads_are_consistent():
    from concurrent.futures import ThreadPoolExecutor

    rs = build("B", 2)
    reference = PartitionTable(rs)
    queries = list(itertools.product(range(5), repeat=2))
    expected = [reference.poly(x) for x in queries]

    shared = PartitionTable(rs)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(shared.poly, queries * 3))
    assert results == expected * 3


def test_concurrent_batches_are_consistent():
    # Overlapping batches filled by more threads than cores, switching
    # often: every total matches a table that filled them alone, and the
    # table holds the same values.
    from concurrent.futures import ThreadPoolExecutor

    rs = build("F", 4)
    lists, height = domain_term_lists(rs, 1)
    reference = PartitionTable(rs)
    packing, totals = reference.packed_sums(lists)
    expected = [packing.balanced(total, height) for total in totals]
    shared = PartitionTable(rs)
    batches = [lists[i::3] + lists[:i] for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(shared.packed_sums, batch) for batch in batches]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, result in enumerate(results):
        want = [expected[k] for k in range(i, len(lists), 3)] + expected[:i]
        packing, totals = result
        assert [packing.balanced(total, packing.height) for total in totals] == want
    assert shared.height_cutoff() == reference.height_cutoff()
    assert held(shared) == held(reference)


# -- persistence --------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    rs = build("B", 2)
    table = PartitionTable(rs)
    queries = [(2, 2), (1, 2), (3, 4), (0, 0)]
    values = {x: table.poly(x) for x in queries}
    path = cache_path(rs.id, tmp_path)
    table.save(path)

    fresh = load_table(rs, tmp_path)
    assert held(fresh) == values
    for x, v in values.items():
        assert fresh.poly(x) == v


def test_cache_is_extendable(tmp_path):
    rs = build("A", 2)
    path = cache_path(rs.id, tmp_path)

    first = PartitionTable(rs)
    first.poly((1, 1))
    first.save(path)

    second = PartitionTable(rs)
    second.poly((2, 2))
    second.extend_from(path)
    assert second.poly((1, 1))[1] == 1
    second.save(path)

    merged = load_table(rs, tmp_path)
    assert held(merged) == {(1, 1): (0, 1, 1), (2, 2): (0, 0, 1, 1, 1)}
    assert merged.height_cutoff() == 4


def test_only_new_values_or_a_stale_file_need_saving(tmp_path):
    rs = build("A", 2)
    path = cache_path(rs.id, tmp_path)
    table = PartitionTable(rs)
    assert not table.unsaved
    table.poly((1, 1))
    assert table.unsaved
    table.save(path)
    assert not table.unsaved

    warm = load_table(rs, tmp_path)
    warm.poly((1, 1))
    assert not warm.unsaved
    warm.poly((2, 2))
    assert warm.unsaved

    path.write_text("[]")
    stale = load_table(rs, tmp_path)
    assert stale.unsaved  # rewritten even if the run computes nothing


def test_cache_rejects_wrong_type(tmp_path):
    rs_a = build("A", 2)
    rs_b = build("B", 2)
    table = PartitionTable(rs_a)
    table.poly((1, 1))
    path = tmp_path / "cache.txt"
    table.save(path)
    with pytest.raises(StaleCacheError):
        PartitionTable(rs_b).extend_from(path)


def test_cache_rejects_schema_bump(tmp_path):
    rs = build("A", 2)
    table = PartitionTable(rs)
    table.poly((1, 1))
    path = tmp_path / "cache.txt"
    table.save(path)

    def bump(header, records):
        header[1] = str(PARTITION_CACHE_SCHEMA + 1)

    rewrite(path, bump)
    with pytest.raises(StaleCacheError, match="schema"):
        PartitionTable(rs).extend_from(path)


def test_cache_rejects_garbage(tmp_path):
    rs = build("A", 2)
    path = tmp_path / "cache.txt"
    path.write_text("{not json")
    with pytest.raises(StaleCacheError):
        PartitionTable(rs).extend_from(path)


def test_malformed_record_merges_nothing(tmp_path):
    rs = build("A", 2)
    table = PartitionTable(rs)
    table.poly((2, 2))
    path = table.save(tmp_path / "cache.txt")
    rewrite(path, lambda header, records: records.append("1 0 0 -1"))
    fresh = PartitionTable(rs)
    with pytest.raises(StaleCacheError, match="malformed"):
        fresh.extend_from(path)
    assert fresh._values == {}


def test_repeated_record_merges_nothing(tmp_path):
    rs = build("A", 2)
    table = PartitionTable(rs)
    table.poly((2, 2))
    path = table.save(tmp_path / "cache.txt")
    # The same x twice, each record well formed and true.
    rewrite(path, lambda header, records: records.append(records[0]))
    fresh = PartitionTable(rs)
    with pytest.raises(StaleCacheError, match="malformed"):
        fresh.extend_from(path)
    assert fresh._values == {}


def test_cache_disagreeing_with_table_is_refused(tmp_path):
    rs = build("A", 2)
    table = PartitionTable(rs)
    table.poly((1, 1))
    path = table.save(tmp_path / "cache.txt")

    def tamper(header, records):
        records[:] = ["1 1 0 5 1"]

    rewrite(path, tamper)
    with pytest.raises(StaleCacheError, match="disagrees"):
        table.extend_from(path)
    assert table.poly((1, 1)) == (0, 1, 1)


def test_cache_header_records_ordering_hash(tmp_path):
    rs = build("G", 2)
    table = PartitionTable(rs)
    table.poly((1, 1))
    path = table.save(tmp_path / "g2.txt")
    # The digest is the SHA-256 of the record bytes after the header line.
    head, body = path.read_bytes().split(b"\n", 1)
    assert body == b"1 1 0 1 1\n"
    assert head.decode().split(" ") == [
        "nilcone-partition-cache", str(PARTITION_CACHE_SCHEMA), "G", "2",
        table.root_order_hash(), digest(body)]

    # a different ordering hash is refused
    def reorder(header, records):
        header[4] = "0" * 16

    rewrite(path, reorder)
    with pytest.raises(StaleCacheError, match="root ordering"):
        PartitionTable(rs).extend_from(path)


@pytest.mark.parametrize("family,rank,expected", [
    ("A", 2, "94953dbb095bb6cc"), ("G", 2, "f28525e9aa23290c"),
    ("F", 4, "6722cf629e68f1ae"), ("E", 8, "8d2c13dd9ab0cffd"),
])
def test_root_order_hash_is_pinned(family, rank, expected):
    # The order of Phi+ is the DP order and the cache header's guard: a
    # change to it would make every cache file stale, so it is pinned.
    assert PartitionTable(build(family, rank)).root_order_hash() == expected


def test_failed_save_keeps_previous_cache(tmp_path, monkeypatch):
    import os

    from nilcone import partition

    rs = build("A", 2)
    path = cache_path(rs.id, tmp_path)
    first = PartitionTable(rs)
    first.poly((1, 1))
    first.save(path)

    class TornFile:
        """Writes half of what it is given, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    real_fdopen = os.fdopen
    monkeypatch.setattr(partition.os, "fdopen",
                        lambda *a, **k: TornFile(real_fdopen(*a, **k)))
    second = PartitionTable(rs)
    second.poly((2, 2))
    with pytest.raises(OSError):
        second.save(path)
    monkeypatch.undo()

    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    reloaded = load_table(rs, tmp_path)
    assert held(reloaded) == held(first)


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_saved_cache_file_honours_the_umask(tmp_path, umask, mode):
    # A shared cache directory needs files every user can read: the file
    # gets 0666 less the umask, as any new file does.
    import os
    import stat

    rs = build("A", 2)
    table = PartitionTable(rs)
    table.poly((1, 1))
    saved = os.umask(umask)
    try:
        path = table.save(cache_path(rs.id, tmp_path))
    finally:
        os.umask(saved)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_save_replaces_a_temporary_file_left_by_a_killed_writer(tmp_path):
    # The temporary name is unique to a process and thread, so a file
    # already there was left by a writer that died with the same ids.
    import os
    import threading

    rs = build("A", 2)
    table = PartitionTable(rs)
    table.poly((1, 1))
    path = cache_path(rs.id, tmp_path)
    left = tmp_path / f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    left.write_bytes(b"half a file")
    table.save(path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert held(load_table(rs, tmp_path)) == held(table)
