"""Golden mean-field outputs, pinned to the last bit.

Each value is the float.hex() of what the analyzer returned when it was
pinned.  A change that moves any of them changes what the tool computes
and must say so; a faster evaluation of the same exact binomial anchors
leaves every one of them as it is.
"""

import pytest

from kmajority.meanfield import (
    BiasMode,
    MeanFieldParams,
    Regime,
    critical_bias_k,
    critical_bias_kq,
    fixed_points,
    trajectory,
)

P_STAR_K = {
    257: "0x1.b3090d38c71c9p-2",
    1001: "0x1.d4e312d48e391p-2",
}


@pytest.mark.parametrize("k", sorted(P_STAR_K))
def test_critical_bias_k(k):
    assert critical_bias_k(k).p_star_k.hex() == P_STAR_K[k]


def test_critical_bias_kq():
    assert critical_bias_kq(65, 0.6).p_star_kq.hex() == "0x1.1fec1a6d54906p-3"


def test_fixed_points_k501():
    fp = fixed_points(MeanFieldParams(501, 0.4, BiasMode.EDGE))
    assert fp.regime is Regime.SUBCRITICAL
    assert fp.phi_minus.hex() == "0x1.c0b1f90147b55p-1"
    assert fp.phi_plus.hex() == "0x1.ffff9a7546930p-1"
    assert fp.mu.hex() == "0x1.d42143bcc2aabp-1"


def test_trajectory_k501():
    orbit = trajectory(MeanFieldParams(501, 0.4, BiasMode.EDGE), 0.9, 6).values
    assert [v.hex() for v in orbit] == [
        "0x1.ccccccccccccdp-1",
        "0x1.ed606f524a70cp-1",
        "0x1.ffe40aeefc6edp-1",
        "0x1.ffff979f79829p-1",
        "0x1.ffff9a74c4999p-1",
        "0x1.ffff9a750e368p-1",
        "0x1.ffff9a750e3e0p-1",
    ]
