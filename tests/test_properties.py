"""Property tests over random dominant weights of bounded height.

The identities tie the graded series to weight multiplicities computed by
the Freudenthal recursion, which shares no code with the alternating sum.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone import WeightMultiplicities, build, kostant_mult
from weyl_oracle import dominant_up_to_height, saturation

TYPES = [("A", 2, 10), ("B", 2, 10), ("G", 2, 10), ("A", 3, 6)]

property_settings = settings(derandomize=True, deadline=None, max_examples=30,
                             database=None)


def dominant_weights(family, rank, max_height):
    return st.sampled_from(dominant_up_to_height(build(family, rank), max_height))


@pytest.mark.parametrize("family,rank,max_height", TYPES)
def test_series_identities(calculators, family, rank, max_height):
    calc = calculators(family, rank)
    rs = calc.rs

    @property_settings
    @given(dominant_weights(family, rank, max_height))
    def check(lam):
        d = calc.series("d", [lam])[0]
        a = calc.series("a", [lam])[0]
        t = calc.series("t", [lam])[0]
        for n in set(d) | set(a) | set(t):
            assert d.get(n, 0) == t.get(n, 0) + a.get(n, 0)
            assert min(d.get(n, 0), a.get(n, 0), t.get(n, 0)) >= 0
        mults = WeightMultiplicities(rs, lam)
        m0 = mults.at((0,) * rank)
        assert sum(d.values()) == m0
        assert sum(t.values()) == m0 - mults.at(rs.theta_short)

    check()


@pytest.mark.parametrize("family,rank,max_height", TYPES)
def test_kostant_equals_freudenthal(systems, family, rank, max_height):
    rs = systems(family, rank)

    @property_settings
    @given(dominant_weights(family, rank, max_height), st.data())
    def check(lam, data):
        mults = WeightMultiplicities(rs, lam)
        mu = data.draw(st.sampled_from(saturation(rs, lam)))
        assert kostant_mult(rs, lam, mu) == mults.at(mu)

    check()
