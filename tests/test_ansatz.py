"""Bending-ansatz asymptotics: exact limits and component scaling laws."""

import math

import numpy as np
import pytest

from cylshell import ansatz, fields, korn
from cylshell.errors import ParameterError
from cylshell.fields import _gauss
from cylshell.material import (ShellGeometry, derive_material, hoop_imperfection,
                               perfect_stress, shear_imperfection)

from shell_bc import verify_bc

L = math.pi
H_SWEEP = [1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4]


def test_wavenumber():
    assert ansatz.wavenumber(1e-4) == 10
    assert ansatz.wavenumber(5.0**-4) == 5
    assert ansatz.wavenumber(0.9) == 1
    assert ansatz.wavenumber(ansatz.H_MIN) == 1000
    for h in (0.0, 1e-13, 1e-300):
        with pytest.raises(ParameterError, match="for the ansatz"):
            ansatz.wavenumber(h)
    with pytest.raises(ParameterError):
        ansatz.wavenumber(1.5)


def test_bump_validation():
    with pytest.raises(ParameterError):
        ansatz.BumpProfile(eta0=4.0, L=L)
    with pytest.raises(ParameterError):
        ansatz.BumpProfile(eta0=1.0, L=-1.0)
    # the admitted lengths: past them the squared integrals lose all digits
    for bad_L in (1e-13, 1e13, 1e-300, 1e300):
        with pytest.raises(ParameterError, match="1e-12, 1e12"):
            ansatz.BumpProfile(eta0=1.0, L=bad_L)
    for good_L in (1e-12, 1e12):
        assert math.isfinite(ansatz.BumpProfile(eta0=1.0, L=good_L, skew=-1.0).strain_limit())
    # the terms are always derived from eta0, L and skew
    with pytest.raises(TypeError):
        ansatz.BumpProfile(1.0, math.pi, terms=("junk",))


def test_bump_compact_support():
    bump = ansatz.BumpProfile(eta0=1.0, L=L)
    assert bump(1.2, 0.5 * L) == 0.0
    assert bump(0.0, -0.1) == 0.0
    assert bump(0.0, 0.5 * L) > 0.0


def test_bump_norm_sq_against_quadrature():
    bump = ansatz.BumpProfile(eta0=1.0, L=L, skew=-1.0)
    en, ew = _gauss(-1.0, 1.0, 40)
    zn, zw = _gauss(0.0, L, 40)
    for d_eta, d_z in ((0, 0), (3, 0), (0, 2), (4, 0), (2, 1)):
        vals = bump(en[:, None], zn[None, :], d_eta, d_z)
        quad = float(np.sum(ew[:, None] * zw[None, :] * vals**2))
        # the closed form evaluates a degree-20+ antiderivative in the
        # monomial basis at z = L, which loses ~8 digits to cancellation
        assert bump.norm_sq(d_eta, d_z) == pytest.approx(quad, rel=1e-6)


def test_bump_limits_positive():
    bump = ansatz.BumpProfile(eta0=1.0, L=L)
    assert bump.gradient_limit() == pytest.approx(2.0 * bump.norm_sq(3, 0))
    assert bump.strain_limit() == pytest.approx(
        bump.norm_sq(0, 2) + bump.norm_sq(4, 0) / 12.0)


def test_ansatz_field_satisfies_fixed_bottom_bc():
    geo = ShellGeometry(h=1e-2, L=L)
    bump = ansatz.BumpProfile(eta0=1.0, L=L)
    ans = ansatz.build_ansatz(1e-2, bump)
    assert verify_bc(ans.field, geo)


def test_ansatz_grid_spans_the_ansatz_shell():
    # the shell is ShellGeometry(h, bump.L): I_h in r, [0, bump.L] in z
    ans = ansatz.build_ansatz(1e-2, ansatz.BumpProfile(eta0=1.0, L=2.0))
    grid = ansatz.ansatz_grid(ans)
    assert grid.r_weights.sum() == pytest.approx(1e-2, rel=1e-12)
    assert grid.z_weights.sum() == pytest.approx(2.0, rel=1e-12)
    assert grid.th_weights.sum() == pytest.approx(np.diff(ans.support)[0], rel=1e-12)


def _ansatz_quantities(ans, grid, mat):
    """Every quantity the ansatz sweeps integrate, on one grid: the gradient and
    strain norms, korn's component groups, S, and C under each stress weight."""
    p = ans.field.partials(grid.R, grid.TH, grid.Z)
    g = {**fields.cylindrical_gradient(p, grid.R), "ur": p["ur"]}
    e = fields.symmetrize(g)
    out = {"gradient": sum(grid.norm_sq(g[k]) for k in fields.GRAD_KEYS),
           "strain": sum(fields.STRAIN_WEIGHT[k] * grid.norm_sq(e[k]) for k in fields.STRAIN_KEYS)}
    out.update({name: sum(grid.norm_sq(g[k]) for k in keys)
                for name, keys in korn.COMPONENT_GROUPS.items()})
    for name, stress in (("perfect", perfect_stress()), ("hoop", hoop_imperfection()),
                         ("shear", shear_imperfection(np.cos))):
        val = fields.functionals(ans.field, stress, mat, grid)
        out["S"], out[f"C {name}"] = val.S, val.C
    return out


@pytest.mark.parametrize("skew", [0.0, -1.0, 0.7])
def test_ansatz_grid_matches_a_64_node_rule(skew):
    # 16 theta and z nodes integrate the ansatz's polynomial integrands
    # exactly: every quantity matches the 8 x 64 x 64 rule to rounding.  The
    # shear C is compared on its scale, the integral of its integrand's
    # absolute value: it cancels to 0 at skew 0, and its cos theta weight is
    # not a polynomial
    mat = derive_material(1.0, 0.3)
    bump = ansatz.BumpProfile(eta0=1.0, L=L, skew=skew)
    shear = shear_imperfection(np.cos)
    for h in (0.5, 3.0**-4, 1e-3, 1e-4, 1e-8):
        ans = ansatz.build_ansatz(h, bump)
        grid = ansatz.ansatz_grid(ans)
        assert (grid.r_nodes.size, grid.th_nodes.size, grid.z_nodes.size) == (8, 16, 16)
        ref_grid = fields.volume_grid(ShellGeometry(h, L), n_r=8, n_th=64, n_z=64,
                                      theta_interval=ans.support)
        got, ref = _ansatz_quantities(ans, grid, mat), _ansatz_quantities(ans, ref_grid, mat)
        g = fields.gradient(ans.field, ref_grid.R, ref_grid.TH, ref_grid.Z)
        c_scale = ref_grid.integrate(
            np.abs(fields.compressiveness_integrand(shear, g, ref_grid.TH, ref_grid.Z)))
        assert abs(got.pop("C shear") - ref.pop("C shear")) <= 1e-10 * c_scale, h
        for name, value in ref.items():
            assert got[name] == pytest.approx(value, rel=1e-12), (h, name)


def test_verify_limits_converges_monotonically():
    bump = ansatz.BumpProfile(eta0=1.0, L=L)
    report = ansatz.verify_limits(bump, [3.0**-4, 5.0**-4, 1e-4])
    for name in ("gradient", "strain"):
        normalized = report[name].normalized
        # normalized values decrease toward 1 from above along the sweep
        assert all(a > b for a, b in zip(normalized, normalized[1:]))
        assert all(v > 1.0 for v in normalized)
        assert abs(normalized[-1] - 1.0) <= 0.05


def test_verify_limits_reference_values():
    bump = ansatz.BumpProfile(eta0=1.0, L=L)
    report = ansatz.verify_limits(bump, [1e-4])
    assert report["gradient"].normalized[0] == pytest.approx(1.0001450867927526, rel=1e-9)
    assert report["strain"].normalized[0] == pytest.approx(1.0007786116654414, rel=1e-9)


def test_component_scalings_match_targets():
    bump = ansatz.BumpProfile(eta0=1.0, L=L)
    report = ansatz.component_scalings(bump, H_SWEEP)
    for name, target in ansatz.COMPONENT_EXPONENTS.items():
        assert report[name].fit.exponent == pytest.approx(target, abs=0.15), name


def test_thetaz_pair_rate_on_deep_sweep():
    # the h^(3/4) group approaches its rate slowly; a deeper sweep tightens it
    bump = ansatz.BumpProfile(eta0=1.0, L=L)
    deep = [4.0**-4, 5.0**-4, 7.0**-4, 10.0**-4, 14.0**-4, 20.0**-4]
    report = ansatz.component_scalings(bump, deep)
    assert report["thzzth"].fit.exponent == pytest.approx(0.75, abs=0.05)


def test_compressiveness_exponents():
    mat = derive_material(1.0, 0.3)
    bump = ansatz.BumpProfile(eta0=1.0, L=L)
    rep = ansatz.compressiveness_scaling(bump, H_SWEEP, mat, perfect_stress())
    assert rep["ratio"].fit.exponent == pytest.approx(1.0, abs=0.1)
    rep = ansatz.compressiveness_scaling(bump, H_SWEEP, mat, hoop_imperfection())
    assert rep["ratio"].fit.exponent == pytest.approx(1.5, abs=0.15)
    skewed = ansatz.BumpProfile(eta0=1.0, L=L, skew=-1.0)
    rep = ansatz.compressiveness_scaling(skewed, H_SWEEP, mat, shear_imperfection(np.cos))
    assert rep["ratio"].fit.exponent == pytest.approx(1.25, abs=0.15)


def test_shear_needs_opposing_skew():
    # with the skew aligned to s = cos the shear weight is stabilizing:
    # every point lands in the excluded table and no fit is produced
    mat = derive_material(1.0, 0.3)
    skewed = ansatz.BumpProfile(eta0=1.0, L=L, skew=1.0)
    rep = ansatz.compressiveness_scaling(skewed, [1e-2, 1e-3], mat,
                                         shear_imperfection(np.cos))
    assert len(rep["excluded"].points) == 2
    assert rep["ratio"].fit is None
    assert all(c < 0 for _, c in rep["excluded"].points)
