"""Weight multiplicities: Freudenthal vs Kostant, dimensions, saturations."""

from fractions import Fraction

import pytest

from nilcone import (
    InternalInconsistencyError,
    NonDominantWeightError,
    PartitionTable,
    RootSystem,
    WeightMultiplicities,
    kostant_mult,
    weyl_dim,
)
from nilcone.graded import fold
from nilcone.multiplicity import weyl_dims
from nilcone.rootsys import vadd, vscale
from weyl_oracle import dominant_up_to_height, saturation


def test_highest_weight_has_multiplicity_one(systems):
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = systems(family, rank)
        for lam in [(0,) * rank, (1, 0), (2, 1)]:
            assert WeightMultiplicities(rs, lam).at(lam) == 1


def test_adjoint_zero_weight_space_is_rank(systems):
    # the zero weight space of the adjoint module is the Cartan subalgebra
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        rs = systems(family, rank)
        assert WeightMultiplicities(rs, rs.theta_long).at((0,) * rank) == rank


def test_a2_values_for_tilting_example(systems):
    rs = systems("A", 2)
    mults = WeightMultiplicities(rs, (3, 0))
    assert mults.at((0, 0)) == 1
    assert mults.at((1, 1)) == 1
    assert mults.at((0, 3)) == 0


def test_kostant_examples(systems):
    rs = systems("A", 2)
    assert kostant_mult(rs, (0, 0), (0, 0)) == 1
    assert kostant_mult(rs, (1, 1), (0, 0)) == 2
    rs1 = systems("A", 1)
    assert kostant_mult(rs1, (2,), (0,)) == 1


def test_kostant_sum_is_the_shared_kernel_and_checked(systems, monkeypatch):
    # kostant_mult sums the balanced digits of PartitionTable.packed_sums,
    # the kernel of the graded sums, and refuses a negative total.
    rs = systems("A", 2)
    packing, _ = PartitionTable(rs).packed_sums([[(1, (1, 1))]])
    value = 1 - (3 << packing.bits)  # the profile 1 - 3q
    monkeypatch.setattr(PartitionTable, "packed_sums",
                        lambda self, term_lists: (packing, [value]))
    with pytest.raises(InternalInconsistencyError, match="negative: -2"):
        kostant_mult(rs, (1, 1), (0, 0), table=PartitionTable(rs))


def test_non_dominant_highest_weight_rejected(systems):
    rs = systems("A", 2)
    with pytest.raises(NonDominantWeightError):
        WeightMultiplicities(rs, (-1, 0))
    with pytest.raises(NonDominantWeightError):
        kostant_mult(rs, (0, -2), (0, 0))
    with pytest.raises(NonDominantWeightError):
        weyl_dim(rs, (-1, -1))


def test_weight_multiplicities_refuse_weights_of_the_wrong_length(systems):
    # unchecked, a lam of (3,) hangs at(), whose search below lam cuts
    # every root to one coordinate, and a mu of (0,) reads 0
    rs = systems("A", 2)
    for lam in [(3,), (1, 1, 1), ()]:
        with pytest.raises(ValueError, match="2 coordinates"):
            WeightMultiplicities(rs, lam)
    table = WeightMultiplicities(rs, (1, 1))
    for mu in [(0,), (0, 0, 0), ()]:
        with pytest.raises(ValueError, match="2 coordinates"):
            table.at(mu)


def test_weyl_dims_refuse_weights_of_the_wrong_length(systems):
    # unchecked, the columns of (1,) raise TypeError and (1, 1, 1) reads 8
    rs = systems("A", 2)
    for lam in [(1,), (1, 1, 1), ()]:
        with pytest.raises(ValueError, match="2 coordinates"):
            weyl_dim(rs, lam)
    with pytest.raises(ValueError, match=r"\(1, 1, 1\) does not have 2"):
        weyl_dims(rs, [(1, 0), (1, 1, 1), (-1, 0)])


def test_weyl_dim_a2(systems):
    rs = systems("A", 2)
    assert weyl_dim(rs, (0, 0)) == 1
    assert weyl_dim(rs, (1, 0)) == 3
    assert weyl_dim(rs, (0, 1)) == 3
    assert weyl_dim(rs, (1, 1)) == 8
    assert weyl_dim(rs, (3, 0)) == 10
    assert weyl_dim(rs, (2, 2)) == 27


def test_weyl_dim_other_types(systems):
    assert weyl_dim(systems("B", 2), (1, 0)) == 5   # vector rep of so(5)
    assert weyl_dim(systems("B", 2), (0, 1)) == 4   # spinor rep
    assert weyl_dim(systems("G", 2), (1, 0)) == 7
    assert weyl_dim(systems("G", 2), (0, 1)) == 14  # adjoint


def fraction_weyl_dim(rs, lam):
    """Reference: Weyl's product of (lam + rho, alpha) / (rho, alpha)."""
    shifted = tuple(a + b for a, b in zip(lam, rs.rho))
    result = Fraction(1)
    for r_alpha in rs.positive_root_coords:
        result *= Fraction(rs.inner(shifted, r_alpha), rs.inner(rs.rho, r_alpha))
    return result


@pytest.mark.parametrize("family,rank,sweep", [("G", 2, 8), ("F", 4, 3)])
def test_weyl_dim_matches_the_fraction_product(systems, family, rank, sweep):
    rs = systems(family, rank)
    for lam in rs.dominant_below(tuple(sweep * c for c in rs.theta_long)):
        assert weyl_dim(rs, lam) == fraction_weyl_dim(rs, lam), lam


FOLDED = [("A", 1, 6), ("A", 2, 4), ("A", 3, 3), ("A", 4, 3), ("B", 2, 4),
          ("B", 3, 3), ("C", 3, 3), ("D", 4, 3), ("G", 2, 8), ("F", 4, 3),
          ("E", 6, 2), ("E", 7, 2)]


@pytest.mark.parametrize("family,rank,m", FOLDED)
def test_weyl_dims_match_the_fraction_product(systems, family, rank, m):
    # every weight the Hilbert series folds to at degree m, both profiles
    rs = systems(family, rank)
    _, folded = fold(rs, m, [(0,) * rank, rs.theta_short])
    lams = sorted(set().union(*folded))
    assert len(lams) > 1
    assert weyl_dims(rs, lams) == [fraction_weyl_dim(rs, lam) for lam in lams]


def test_weyl_dims_reject_the_first_non_dominant_weight(systems):
    rs = systems("B", 2)
    assert weyl_dims(rs, []) == []
    with pytest.raises(NonDominantWeightError) as caught:
        weyl_dims(rs, [(1, 0), (2, -1), (-1, 0), (0, 1)])
    assert caught.value.weight == (2, -1)
    with pytest.raises(NonDominantWeightError) as caught:
        weyl_dims(rs, [[0, 0], [-3, 5]])
    assert caught.value.weight == (-3, 5)


def test_w_invariance(systems):
    rs = systems("B", 2)
    table = WeightMultiplicities(rs, (2, 2))
    for mu in saturation(rs, (2, 2)):
        expected = table.at(rs.dominant_representative(mu))
        assert table.at(mu) == expected


def test_saturation_sums_to_dimension(systems):
    rs = systems("A", 2)
    for lam in dominant_up_to_height(rs, 6):
        table = WeightMultiplicities(rs, lam)
        assert sum(table.at(mu) for mu in saturation(rs, lam)) == weyl_dim(rs, lam)


def test_zero_off_the_coset(systems):
    rs = systems("A", 2)
    # lam - mu not in the root lattice forces multiplicity zero, as does a
    # mu whose dominant representative is not below lam: (2, 2) above
    # (1, 1), and (-2, 4), whose representative is (2, 2).
    for lam, mu in [((1, 0), (0, 0)), ((1, 1), (2, 2)), ((1, 1), (-2, 4))]:
        assert WeightMultiplicities(rs, lam).at(mu) == 0
        assert kostant_mult(rs, lam, mu) == 0


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_freudenthal_equals_kostant_height_8(systems, family, rank):
    rs = systems(family, rank)
    for lam in dominant_up_to_height(rs, 8):
        table = WeightMultiplicities(rs, lam)
        for mu in saturation(rs, lam):
            assert table.at(mu) == kostant_mult(rs, lam, mu), (lam, mu)


def test_deep_weight_needs_no_recursion(systems):
    # 2000 dominant weights lie between 0 and lam = (4000) on A1, each a
    # step up from the last; the memo is filled from lam down, so no call
    # stack grows with that depth (the default recursion limit is 1000).
    rs = systems("A", 1)
    table = WeightMultiplicities(rs, (4000,))
    assert table.at((0,)) == 1
    assert table.at((-3998,)) == table.at((2,)) == 1
    assert table.at((4002,)) == 0


def test_one_domain_per_table(systems, monkeypatch):
    # F4 L(3 theta) at its 17 dominant weights, top-down on one table: one
    # domain search in all, the values of a bottom-up pass, and 0 for a
    # weight above lam, one whose representative is, and one beside it
    # (4 omega_4: lam - mu has root coordinates (2, 1, 0, -2)).  F4's root
    # lattice is its weight lattice, so no weight is off the coset here;
    # test_zero_off_the_coset checks that case on A2.
    rs = systems("F", 4)
    lam = vscale(3, rs.theta_long)
    domain = rs.dominant_below(lam)
    assert len(domain) == 17
    bottom_up = WeightMultiplicities(rs, lam)
    expected = [bottom_up.at(mu) for mu in domain]
    calls = []
    search = RootSystem.dominant_below
    monkeypatch.setattr(RootSystem, "dominant_below",
                        lambda self, top: calls.append(top) or search(self, top))
    table = WeightMultiplicities(rs, lam)
    assert [table.at(mu) for mu in reversed(domain)] == expected[::-1]
    for mu in [vadd(lam, rs.theta_long), (-4, 0, 0, 0), (0, 0, 0, 4)]:
        assert table.at(mu) == 0
    assert calls == [lam]
    assert expected[0] > 1 and expected[-1] == 1


def test_a_table_is_filled_whole_when_built(systems, monkeypatch):
    # Building F4 L(3 theta) evaluates Freudenthal's formula once at each
    # of its 17 domain weights but lam, and a query after that evaluates
    # it nowhere: at() only looks a value up.
    rs = systems("F", 4)
    lam = vscale(3, rs.theta_long)
    domain = rs.dominant_below(lam)
    assert len(domain) == 17
    step = WeightMultiplicities._freudenthal
    evaluated = []
    monkeypatch.setattr(WeightMultiplicities, "_freudenthal",
                        lambda self, mu, diff: evaluated.append(mu) or step(self, mu, diff))
    table = WeightMultiplicities(rs, lam)
    assert sorted(evaluated) == sorted(nu for nu in domain if nu != lam)
    evaluated.clear()
    assert [table.at(mu) for mu in domain] == [
        kostant_mult(rs, lam, mu) for mu in domain]
    assert evaluated == []
