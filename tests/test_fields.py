"""Field calculus: gradients, quadrature, boundary tags, functional family."""

from dataclasses import replace
import math

import numpy as np
import pytest

from cylshell.ansatz import BumpProfile, ansatz_grid, build_ansatz
from cylshell.errors import NotDestabilizingError, ShapeError
from cylshell.fixedbc import fixedbc_mode
from cylshell.fields import (GRAD_KEYS, STRAIN_KEYS, STRAIN_WEIGHT, TrigSurface,
                             from_midsurface, functional_family, functionals,
                             gradient, strain, verify_bc, volume_grid)
from cylshell.koiter import buckling_mode, koiter_circle_n
from cylshell.material import ShellGeometry, perfect_stress


def _fd(field, key, r, th, z, which, eps=1e-6):
    """Central difference of the partial ``key`` of field in r, theta or z."""
    step = {"r": (eps, 0, 0), "th": (0, eps, 0), "z": (0, 0, eps)}[which]
    plus = field.partials(r + step[0], th + step[1], z + step[2])[key]
    minus = field.partials(r - step[0], th - step[1], z - step[2])[key]
    return (plus - minus) / (2 * eps)


def _trig_field(mat, geo):
    f_r = TrigSurface("cos", 3, "sin", 2.0)
    f_t = TrigSurface("sin", 3, "sin", 2.0, amp=0.4)
    f_z = TrigSurface("cos", 3, "cos", 2.0, amp=-0.7)
    return from_midsurface(f_r, f_t, f_z)


def _ansatz_field(mat, geo):
    # theta = 0.11 lies inside the compressed support (-1/3, 1/3) at h = 1e-2
    return build_ansatz(geo.h, BumpProfile(eta0=1.0, L=geo.L), geo).field


def _fixedbc_field(mat, geo):
    return fixedbc_mode(3, geo, mat)


@pytest.mark.parametrize("make, th", [(_trig_field, 0.37), (_ansatz_field, 0.11),
                                      (_fixedbc_field, 0.37)],
                         ids=["trig", "ansatz", "fixedbc"])
def test_gradient_matches_finite_differences(mat, geo_thick, make, th):
    field = make(mat, geo_thick)
    r, z = 1.003, 0.91
    g = gradient(field, r, th, z)
    u = field.partials(r, th, z)
    checks = {
        "rr": _fd(field, "ur", r, th, z, "r"),
        "rt": (_fd(field, "ur", r, th, z, "th") - u["ut"]) / r,
        "rz": _fd(field, "ur", r, th, z, "z"),
        "tr": _fd(field, "ut", r, th, z, "r"),
        "tt": (_fd(field, "ut", r, th, z, "th") + u["ur"]) / r,
        "tz": _fd(field, "ut", r, th, z, "z"),
        "zr": _fd(field, "uz", r, th, z, "r"),
        "zt": _fd(field, "uz", r, th, z, "th") / r,
        "zz": _fd(field, "uz", r, th, z, "z"),
    }
    for key in GRAD_KEYS:
        assert float(g[key]) == pytest.approx(float(checks[key]), abs=1e-7), key


class _CountingProfile:
    """A profile that records each (dth, dz) it is evaluated at."""

    def __init__(self, base, calls):
        self.base, self.calls = base, calls

    def __call__(self, theta, z, dth=0, dz=0):
        self.calls.append((id(self), dth, dz))
        return self.base(theta, z, dth, dz)


@pytest.mark.parametrize("make", [_trig_field, _ansatz_field], ids=["trig", "ansatz"])
def test_gradient_evaluates_each_profile_derivative_once(mat, geo_thick, make):
    field = make(mat, geo_thick)
    calls = []
    counted = replace(field, **{name: _CountingProfile(getattr(field, name), calls)
                                for name in ("f_r", "f_t", "f_z")})
    grid = volume_grid(geo_thick, n_r=3, n_th=8, n_z=4)
    g = gradient(counted, grid.R, grid.TH, grid.Z)
    assert len(calls) == len(set(calls)) == 12
    for key, value in gradient(field, grid.R, grid.TH, grid.Z).items():
        assert np.array_equal(g[key], value), key


def test_functional_family_evaluates_each_profile_derivative_once(mat, geo_thick):
    # the gradient and the reduced forms read one surface jet
    n = koiter_circle_n(1, geo_thick, mat.Lambda)
    field = buckling_mode(1, geo_thick, mat, n=n)
    calls = []
    counted = replace(field, **{name: _CountingProfile(getattr(field, name), calls)
                                for name in ("f_r", "f_t", "f_z")})
    grid = volume_grid(geo_thick, n_r=3, n_th=2 * n + 7, n_z=8)
    fam = functional_family(counted, mat, geo_thick, grid)
    assert len(calls) == len(set(calls)) == 12
    assert fam == functional_family(field, mat, geo_thick, grid)


def test_volume_quadrature_exact():
    geo = ShellGeometry(h=0.3, L=2.5)
    grid = volume_grid(geo, n_r=4, n_th=8, n_z=4)
    # int r dr = h over the unit-centered annulus, so both measures give 2 pi L h
    assert grid.integrate(np.ones((1, 1, 1))) == pytest.approx(
        2.0 * math.pi * geo.L * geo.h, rel=1e-13)
    # the flat measure dr dtheta dz is the volume measure of 1/r
    assert grid.integrate(1.0 / grid.R) == pytest.approx(
        2.0 * math.pi * geo.L * geo.h, rel=1e-13)


def test_trig_mode_norm():
    geo = ShellGeometry(h=0.1, L=math.pi)
    grid = volume_grid(geo, n_r=3, n_th=12, n_z=20)
    vals = np.cos(4 * grid.TH) * np.sin(3.0 * grid.Z) * np.ones_like(grid.R)
    # int r dr = h on the unit-centered annulus; cos^2 is exact under the
    # periodic trapezoid rule, sin^2 under a 20-node Gauss rule on [0, pi]
    assert grid.norm_sq(vals) == pytest.approx(
        geo.h * math.pi * geo.L / 2.0, rel=1e-12)


def test_verify_bc_average_top(geo_thick):
    f_r = TrigSurface("cos", 5, "sin", 3.0 * math.pi / geo_thick.L)
    field = from_midsurface(f_r, None, None, bc_tag="average_top")
    assert verify_bc(field, geo_thick)


def test_verify_bc_rejects_nonzero_edge(geo_thick):
    f_r = TrigSurface("cos", 5, "cos", math.pi / geo_thick.L)
    field = from_midsurface(f_r, None, None, bc_tag="average_top")
    with pytest.raises(ShapeError):
        verify_bc(field, geo_thick)


def test_strain_is_symmetric_part(geo_thick):
    f_r = TrigSurface("cos", 2, "sin", 1.0)
    field = from_midsurface(f_r, None, None)
    r, th, z = 0.997, 1.1, 0.4
    g = gradient(field, r, th, z)
    e = strain(field, r, th, z)
    assert float(e["rt"]) == pytest.approx(0.5 * float(g["rt"] + g["tr"]))
    assert float(e["rr"]) == pytest.approx(float(g["rr"]))


def test_ratio_raises_on_noncompressive(mat, geo_thick):
    # a field with no z-dependence has C = 0 under perfect axial compression
    f_r = TrigSurface("cos", 2, "one", 0.0)
    field = from_midsurface(f_r)
    grid = volume_grid(geo_thick, n_r=3, n_th=8, n_z=4)
    val = functionals(field, perfect_stress(), mat, grid)
    assert abs(val.C) <= 1e-14 * val.S
    with pytest.raises(NotDestabilizingError):
        val.ratio


def test_functional_family_ordering(mat, geo_thick):
    # K <= K1 under perfect compression: C = ||u_z,z...||-type terms never
    # exceed the full gradient contraction bounded below by ||u_r,z||^2
    n = koiter_circle_n(2, geo_thick, mat.Lambda)
    field = buckling_mode(2, geo_thick, mat, n=n)
    grid = volume_grid(geo_thick, n_r=4, n_th=2 * n + 7, n_z=16)
    fam = functional_family(field, mat, geo_thick, grid)
    assert fam["K"] <= fam["K1"] * (1.0 + 1e-12)
    assert fam["K1"] > 0 and fam["K0"] > 0 and fam["Kstar"] > 0


def test_functional_family_axisymmetric_degenerate(mat):
    # pure radial axisymmetric U(f): the simplified flat-measure energy and
    # the reduced-form K* agree closely at small h
    geo = ShellGeometry(h=1e-3, L=math.pi)
    f_r = TrigSurface("one", 0, "sin", 3.0 * math.pi / geo.L)
    field = from_midsurface(f_r, None, None, bc_tag="average_top")
    grid = volume_grid(geo, n_r=4, n_th=8, n_z=24)
    fam = functional_family(field, mat, geo, grid)
    assert fam["Kstar"] == pytest.approx(fam["K0"], rel=1e-10)


def test_kstar_uses_the_grid_rule(mat):
    # the bending ansatz lives on a compressed theta support; K* on its
    # Gauss rule there must match K* on a fine uniform full-circle rule
    geo = ShellGeometry(h=1e-4, L=math.pi)
    ans = build_ansatz(1e-4, BumpProfile(1.0, math.pi), geo)
    kstar = functional_family(ans.field, mat, geo, ansatz_grid(ans, geo))["Kstar"]
    uniform = volume_grid(geo, n_r=8, n_th=2560, n_z=64)
    ref = functional_family(ans.field, mat, geo, uniform)["Kstar"]
    assert kstar == pytest.approx(ref, rel=1e-3)


def test_functional_family_reference_values(mat):
    # the m = 1 Koiter mode on the benchmark's family grid at h = 1e-3, pinned
    # so that any change to how a field is evaluated shows
    geo = ShellGeometry(h=1e-3, L=math.pi)
    n = koiter_circle_n(1, geo, mat.Lambda)
    field = buckling_mode(1, geo, mat, n=n)
    fam = functional_family(field, mat, geo, volume_grid(geo, n_r=4, n_th=2 * n + 7, n_z=24))
    assert fam["K"] == pytest.approx(0.0006941248876441151, rel=1e-13)
    assert fam["K1"] == pytest.approx(0.0007087829370177234, rel=1e-13)
    assert fam["K0"] == pytest.approx(0.0007088161113553072, rel=1e-13)
    assert fam["Kstar"] == pytest.approx(0.0007200091575091564, rel=1e-13)


def test_strain_weights_sum():
    # |e|^2 uses multiplicity 2 on the off-diagonal entries
    assert sum(STRAIN_WEIGHT[k] for k in STRAIN_KEYS) == 9.0
