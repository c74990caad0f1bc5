"""Weight multiplicities: Freudenthal vs Kostant, dimensions, saturations."""

from fractions import Fraction

import pytest

from nilcone import (
    InternalInconsistencyError,
    NonDominantWeightError,
    PartitionTable,
    WeightMultiplicities,
    freudenthal_mult,
    kostant_mult,
    weyl_dim,
)
from weyl_oracle import dominant_up_to_height


def test_highest_weight_has_multiplicity_one(systems):
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = systems(family, rank)
        for lam in [(0,) * rank, (1, 0), (2, 1)]:
            assert freudenthal_mult(rs, lam, lam) == 1


def test_adjoint_zero_weight_space_is_rank(systems):
    # the zero weight space of the adjoint module is the Cartan subalgebra
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        rs = systems(family, rank)
        assert freudenthal_mult(rs, rs.theta_long, (0,) * rank) == rank


def test_a2_values_for_tilting_example(systems):
    rs = systems("A", 2)
    assert freudenthal_mult(rs, (3, 0), (0, 0)) == 1
    assert freudenthal_mult(rs, (3, 0), (1, 1)) == 1
    assert freudenthal_mult(rs, (3, 0), (0, 3)) == 0


def test_kostant_examples(systems):
    rs = systems("A", 2)
    assert kostant_mult(rs, (0, 0), (0, 0)) == 1
    assert kostant_mult(rs, (1, 1), (0, 0)) == 2
    rs1 = systems("A", 1)
    assert kostant_mult(rs1, (2,), (0,)) == 1


def test_kostant_sum_is_the_shared_kernel_and_checked(systems, monkeypatch):
    # kostant_mult sums the profile of PartitionTable.signed_sum, the kernel
    # of the graded sums, and refuses a negative total.
    rs = systems("A", 2)
    monkeypatch.setattr(PartitionTable, "signed_sum",
                        lambda self, terms: {0: 1, 1: -3})
    with pytest.raises(InternalInconsistencyError, match="negative: -2"):
        kostant_mult(rs, (1, 1), (0, 0), table=PartitionTable(rs))


def test_non_dominant_highest_weight_rejected(systems):
    rs = systems("A", 2)
    with pytest.raises(NonDominantWeightError):
        freudenthal_mult(rs, (-1, 0), (0, 0))
    with pytest.raises(NonDominantWeightError):
        kostant_mult(rs, (0, -2), (0, 0))
    with pytest.raises(NonDominantWeightError):
        weyl_dim(rs, (-1, -1))


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


def test_w_invariance(systems):
    rs = systems("B", 2)
    table = WeightMultiplicities(rs, (2, 2))
    for mu in table.saturation():
        expected = table.at(rs.dominant_representative(mu))
        assert table.at(mu) == expected


def test_saturation_sums_to_dimension(systems):
    rs = systems("A", 2)
    for lam in dominant_up_to_height(rs, 6):
        table = WeightMultiplicities(rs, lam)
        assert sum(table.at(mu) for mu in table.saturation()) == weyl_dim(rs, lam)


def test_zero_off_the_coset(systems):
    rs = systems("A", 2)
    # lam - mu not in the root lattice forces multiplicity zero
    assert freudenthal_mult(rs, (1, 0), (0, 0)) == 0
    assert kostant_mult(rs, (1, 0), (0, 0)) == 0


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_freudenthal_equals_kostant_height_8(systems, family, rank):
    rs = systems(family, rank)
    for lam in dominant_up_to_height(rs, 8):
        table = WeightMultiplicities(rs, lam)
        for mu in table.saturation():
            assert table.at(mu) == kostant_mult(rs, lam, mu), (lam, mu)
