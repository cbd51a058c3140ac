"""Log-log power-law fits of h-sweeps."""

import math

import pytest

from cylshell import ansatz, fixedbc
from cylshell.errors import ParameterError
from cylshell.material import derive_material
from cylshell.scaling import fit_exponent


@pytest.mark.parametrize("min_points", [0, 1, 2, 4])
def test_fewer_than_two_points_rejected(min_points):
    # a line through one point has no slope, whatever min_points admits
    for points in ([], [(1e-2, 3.0)]):
        with pytest.raises(ParameterError, match="need at least"):
            fit_exponent(points, min_points=min_points)


def test_min_points_above_two_is_kept():
    points = [(1e-2, 1.0), (1e-3, 2.0), (1e-4, 4.0)]
    with pytest.raises(ParameterError, match="need at least 4 points, got 3"):
        fit_exponent(points)
    assert fit_exponent(points, min_points=3).exponent == pytest.approx(-math.log10(2.0))


def test_repeated_h_rejected():
    with pytest.raises(ParameterError, match="distinct"):
        fit_exponent([(1e-2, 1.0), (1e-2, 2.0)], min_points=2)


@pytest.mark.parametrize("points", [
    [(0.0, 1.0), (1e-2, 2.0)],
    [(-1e-2, 1.0), (1e-3, 2.0)],
    [(1e-2, 0.0), (1e-3, 2.0)],
    [(1e-2, 1.0), (1e-3, -2.0)],
], ids=["zero h", "negative h", "zero value", "negative value"])
def test_non_positive_h_or_value_rejected(points):
    with pytest.raises(ParameterError, match="positive"):
        fit_exponent(points, min_points=2)


def test_recovers_exact_power_law():
    hs = [1e-1, 10**-1.5, 1e-2, 1e-3, 1e-4]
    fit = fit_exponent([(h, 7.5 * h**1.25) for h in hs])
    assert fit.exponent == pytest.approx(1.25, rel=1e-12)
    assert fit.prefactor == pytest.approx(7.5, rel=1e-10)
    assert fit.max_residual <= 1e-12
    # two points fix the line exactly
    fit = fit_exponent([(1e-2, 3.0 * 1e-2**-0.5), (1e-4, 3.0 * 1e-4**-0.5)], min_points=2)
    assert fit.exponent == pytest.approx(-0.5, rel=1e-12)


def test_one_h_sweeps_have_no_exponent():
    # each used to fit a line through its one point
    report = fixedbc.fixedbc_limit([1e-4], 0.25, math.pi, derive_material(1.0, 0.3))
    with pytest.raises(ParameterError, match="need at least 2 points, got 1"):
        report.excess_fit()
    with pytest.raises(ParameterError, match="need at least 2 points, got 1"):
        ansatz.component_scalings(ansatz.BumpProfile(eta0=1.0, L=math.pi), [1e-4])
