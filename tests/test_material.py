"""Material constants, the trivial equilibrium branch, and stress weights."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylshell.errors import NoTrivialBranchError, ParameterError
from cylshell.material import (B_MAX, ShellGeometry, derive_material,
                               hoop_imperfection, perfect_stress,
                               shear_imperfection, solve_trivial_branch,
                               trivial_branch_cubic)


def test_derived_constants(mat):
    assert mat.mu == pytest.approx(1.0 / 2.6)
    assert mat.Lambda == pytest.approx(1.5)
    assert mat.lambda_lame == pytest.approx(mat.mu * mat.Lambda)
    assert mat.alpha_L0 == pytest.approx(2.0 * mat.mu)


def test_energy_density_is_coercive(mat):
    # (L0 e, e) >= alpha_L0 |e|^2 with equality at zero trace
    assert mat.energy_density(0.0, 1.0) == pytest.approx(mat.alpha_L0)
    assert mat.energy_density(1.0, 1.0) > mat.alpha_L0


@pytest.mark.parametrize("E,nu", [(0.0, 0.3), (-1.0, 0.3), (1.0, 0.0),
                                  (1.0, 0.5), (1.0, 0.7)])
def test_material_validation(E, nu):
    with pytest.raises(ParameterError):
        derive_material(E, nu)


@pytest.mark.parametrize("h,L", [(0.0, 1.0), (1.0, 1.0), (-0.1, 1.0), (0.1, 0.0)])
def test_geometry_validation(h, L):
    with pytest.raises(ParameterError):
        ShellGeometry(h=h, L=L)


def test_geometry_annulus():
    geo = ShellGeometry(h=0.2, L=2.0)
    assert geo.I_h == (0.9, 1.1)
    assert geo.r_outer - geo.r_inner == pytest.approx(geo.h)


def test_axial_wavenumber():
    geo = ShellGeometry(h=0.1, L=1.3)
    # the one formula pi m / L, in that operation order
    assert geo.axial_wavenumber(3) == math.pi * 3 / 1.3
    ms = np.array([1.0, 2.0, 7.0])
    assert np.array_equal(geo.axial_wavenumber(ms), math.pi * ms / 1.3)
    for m, first in ((0, 0), (-4, -4), (np.array([2, 0, -1]), 0), (np.array([3.0, -1.0]), -1)):
        with pytest.raises(ParameterError, match=f"axial mode m={first} must be >= 1"):
            geo.axial_wavenumber(m)


def test_trivial_branch_zero_load(mat):
    branch = solve_trivial_branch(mat, 0.0)
    assert branch.a == 0.0 and branch.b == 0.0


def test_trivial_branch_small_load_asymptotics(mat):
    # for small loads b ~ 2 lambda / (2 E) = lambda and a ~ nu b
    lam = 1e-6
    branch = solve_trivial_branch(mat, lam)
    assert branch.b == pytest.approx(lam, rel=1e-4)
    assert branch.a == pytest.approx(mat.nu * branch.b, rel=1e-4)
    assert branch.residual <= 1e-12


def test_trivial_branch_against_mpmath_root(mat):
    # the root of b (1-b)(2-b) = 2 lambda in [0, 1 - 1/sqrt(3)) to 50 digits
    with mpmath.workdps(50):
        for load in np.geomspace(1e-12, 0.19, 25):
            exact = mpmath.findroot(
                lambda b: b * (1 - b) * (2 - b) - 2 * mpmath.mpf(load),
                (mpmath.mpf(0), 1 - 1 / mpmath.sqrt(3)), solver="anderson")
            b = solve_trivial_branch(mat, float(load)).b
            assert abs(b - exact) <= 1e-14 * exact, load


def test_trivial_branch_a_against_mpmath(mat):
    # a = sqrt(1 + nu(2b - b^2)) - 1 to 50 digits at the returned b
    with mpmath.workdps(50):
        nu = mpmath.mpf(mat.nu)
        for load in np.geomspace(1e-12, 0.19, 25):
            branch = solve_trivial_branch(mat, float(load))
            b = mpmath.mpf(branch.b)
            exact = mpmath.sqrt(1 + nu * (2 * b - b * b)) - 1
            assert abs(branch.a - exact) <= 1e-14 * exact, load


@pytest.mark.parametrize("load", [-1e-9, 1.0 / (3.0 * math.sqrt(3.0)), 1.0])
def test_trivial_branch_inadmissible_loads(mat, load):
    with pytest.raises(NoTrivialBranchError):
        solve_trivial_branch(mat, load)


@given(load=st.floats(min_value=0.0, max_value=1.0 / (3.0 * math.sqrt(3.0)),
                      exclude_max=True, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_trivial_branch_solves_cubic(load):
    mat = derive_material(1.0, 0.3)
    branch = solve_trivial_branch(mat, load)
    # loads one ulp below the admissible maximum can round b to exactly B_MAX
    assert 0.0 <= branch.b <= B_MAX
    assert abs(trivial_branch_cubic(branch.b, mat.E, load)) <= 1e-12
    assert branch.a == pytest.approx(
        math.sqrt(1.0 + mat.nu * (2.0 * branch.b - branch.b**2)) - 1.0)


def test_perfect_stress_tensor():
    sig = perfect_stress().tensor(np.linspace(0, 2 * np.pi, 5), 0.3)
    assert list(sig) == ["zz"]
    assert sig["zz"].shape == (5,) and np.all(sig["zz"] == 1.0)


def test_shear_imperfection_components():
    sig = shear_imperfection(np.cos)
    th = np.linspace(0.0, 2.0 * np.pi, 9)
    out = sig.tensor(th, 0.7)
    assert out["tz"] == pytest.approx(np.cos(th))
    # sigma_zz = -z s'(theta) = z sin(theta) for s = cos
    assert out["zz"] == pytest.approx(0.7 * np.sin(th), abs=1e-9)


def test_shear_imperfection_rejects_aperiodic():
    with pytest.raises(ParameterError):
        shear_imperfection(lambda th: th)


def test_hoop_imperfection():
    out = hoop_imperfection().tensor(0.0, 0.0)
    assert list(out) == ["tt"] and float(out["tt"]) == 1.0
