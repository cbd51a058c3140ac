"""End-to-end verification of every headline result at its stated tolerance.

Each test exercises one study from start to finish: the classical buckling
load and its mode structure, the h^(3/2) Korn-constant law, the gradient
component bounds, the bending-ansatz limits, the compressiveness scaling
under the three stress weights, the clamped-bottom limit, the functional
equivalence rates, the rectangle inequalities, and the closed-form oracles.
"""

import math

import numpy as np
import pytest

from cylshell import ansatz, fixedbc, koiter, korn, rect
from cylshell.fields import functional_family, volume_grid
from cylshell.material import (ShellGeometry, derive_material, hoop_imperfection,
                               perfect_stress, shear_imperfection)
from cylshell.scaling import fit_exponent

from test_korn import bisect_min_eigenvalue, random_form_pair

L = math.pi
H_SWEEP = [1e-2, 10**-2.5, 1e-3, 10**-3.5, 1e-4]


def test_classical_load_benchmark(mat, geo_thin):
    res = koiter.minimize_load(geo_thin, mat)
    assert res.closed_form == pytest.approx(7.022e-5, rel=1e-3)
    assert 0.0 <= res.lambda_hat / res.closed_form - 1.0 <= 0.02


def test_circle_structure(mat, geo_thin):
    res = koiter.minimize_load(geo_thin, mat)
    assert res.circle_residual <= 0.05
    assert koiter.koiter_circle_n(1, geo_thin, mat.Lambda) == 13
    assert koiter.max_circle_m(geo_thin, mat.Lambda) == 176


# argmins of the mode scans over H_SWEEP
KORN_ARGMINS = [(1, 5), (1, 7), (1, 9), (1, 12), (1, 16)]
COMPONENT_ARGMINS = {
    "rthr": KORN_ARGMINS,
    "urrzzr": [(1, 4), (1, 6), (1, 8), (1, 10), (1, 14)],
    "thzzth": [(1, 4), (1, 5), (1, 7), (1, 9), (1, 12)],
}


def test_korn_constant_scaling():
    points = []
    argmins = []
    for h, mn in zip(H_SWEEP, KORN_ARGMINS):
        geo = ShellGeometry(h=h, L=L)
        res = korn.korn_constant(geo)
        assert (res.m, res.n) == mn, h
        points.append((h, res.value))
        argmins.append((geo, res))
    fit = fit_exponent(points)
    assert 1.35 <= fit.exponent <= 1.65
    # radial-grid refinement moves each value by less than 1%
    for geo, res in argmins:
        fine = korn.radial_grid(geo, N=48)
        pair = korn.assemble_mode_forms(res.m, res.n, geo, fine)
        refined = korn.min_rayleigh(pair)[0]
        assert abs(refined - res.value) <= 0.01 * res.value


def test_gradient_component_bounds():
    sweeps = {group: [] for group in korn.COMPONENT_GROUPS}
    for i, h in enumerate(H_SWEEP):
        geo = ShellGeometry(h=h, L=L)
        for group in korn.COMPONENT_GROUPS:
            res = korn.component_bound(geo, group)
            sweeps[group].append((h, res.value))
            if group == "ththzz":
                # the diagonal tangential pair never exceeds the strain norm;
                # its argmin is not unique, so it is not pinned
                assert res.value <= 1.0 + 1e-9
            else:
                assert (res.m, res.n) == COMPONENT_ARGMINS[group][i], (group, h)
    for group, pts in sweeps.items():
        fit = fit_exponent(pts)
        target = korn.COMPONENT_EXPONENTS[group]
        assert abs(fit.exponent - target) <= 0.15, (group, fit.exponent)


def test_bending_ansatz_limits():
    bump = ansatz.BumpProfile(eta0=1.0, L=L)
    report = ansatz.verify_limits(bump, [3.0**-4, 5.0**-4, 10.0**-4])
    for name in ("gradient", "strain"):
        normalized = report[name].normalized
        assert abs(normalized[-1] - 1.0) <= 0.05
        # monotone approach to the limit along the sweep
        diffs = [abs(v - 1.0) for v in normalized]
        assert all(a > b for a, b in zip(diffs, diffs[1:]))


def test_compressiveness_scaling_exponents():
    mat = derive_material(1.0, 0.3)
    bump = ansatz.BumpProfile(eta0=1.0, L=L)
    rep = ansatz.compressiveness_scaling(bump, H_SWEEP, mat, perfect_stress())
    assert rep["ratio"].fit.exponent == pytest.approx(1.0, abs=0.1)
    skewed = ansatz.BumpProfile(eta0=1.0, L=L, skew=-1.0)
    rep = ansatz.compressiveness_scaling(skewed, H_SWEEP, mat, shear_imperfection(np.cos))
    assert rep["ratio"].fit.exponent == pytest.approx(1.25, abs=0.15)
    rep = ansatz.compressiveness_scaling(bump, H_SWEEP, mat, hoop_imperfection())
    assert rep["ratio"].fit.exponent == pytest.approx(1.5, abs=0.15)


def test_fixed_bottom_classical_limit(mat):
    report = fixedbc.fixedbc_limit([1e-4, 1e-6], 0.25, L, mat)
    ratios = {row.h: row.ratio for row in report.rows}
    assert ratios[1e-4] == pytest.approx(1.034, abs=0.01)
    assert 1.0 < ratios[1e-6] <= 1.01


def test_functional_equivalence_rates(mat):
    gap_points = []
    for h in H_SWEEP:
        geo = ShellGeometry(h=h, L=L)
        n = koiter.koiter_circle_n(1, geo, mat.Lambda)
        field = koiter.buckling_mode(1, geo, mat, n=n)
        grid = volume_grid(geo, n_r=4, n_th=2 * n + 7, n_z=24)
        fam = functional_family(field, mat, geo, grid)
        assert fam["K"] <= fam["K1"] * (1.0 + 1e-12)
        gap_points.append((h, abs(1.0 / fam["K0"] - 1.0 / fam["K1"]) * fam["K1"]))
        if h == 1e-4:
            assert abs(fam["Kstar"] - fam["K0"]) / fam["K0"] <= 0.1
    fit = fit_exponent(gap_points)
    assert fit.exponent >= 0.2


def test_rectangle_inequalities():
    h, length = 0.1, 1.0
    violations, min_margin = rect.basic_inequality_trials(h, length, trials=200,
                                                          seed=1234)
    assert violations == 0 and min_margin > 0
    lemma = rect.harmonic_lemma_check(h, length, trials=20, seed=1234)
    assert lemma.equality_error <= 1e-8
    assert lemma.hi_violations == 0
    rng = np.random.default_rng(1234)
    for _ in range(5):
        field = rect.random_zero_horizontal(rng, h, length)
        rep = rect.projection_estimates(field, alpha=1.0, h=h, L=length,
                                        allowance=0.05)
        assert rep.holds
    pviol, pmargin = rect.periodic_inequality_trials(h, trials=200, seed=1234)
    assert pviol == 0 and pmargin > 0


def test_closed_form_oracles(mat):
    from scipy.optimize import minimize

    rng = np.random.default_rng(2024)
    for _ in range(20):
        m_hat = float(rng.uniform(0.3, 8.0))
        n = int(rng.integers(0, 20))
        Lam = float(rng.uniform(0.2, 4.0))
        f_t, f_z = koiter.optimal_tangential(1.0 + 0.0j, m_hat, n, Lam)

        def q0(x):
            return koiter.reduced_forms(m_hat, n, Lam, 1.0 + 0.0j,
                                        1j * x[0], x[1]).Q0

        res = minimize(q0, [f_t.imag + 0.1, f_z.real - 0.1], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-16, "maxiter": 8000})
        assert res.x[0] == pytest.approx(f_t.imag, abs=1e-6)
        assert res.x[1] == pytest.approx(f_z.real, abs=1e-6)

    rng = np.random.default_rng(7)
    for _ in range(20):
        pair = random_form_pair(rng, int(rng.integers(3, 9)))
        value = korn.min_rayleigh(pair)[0]
        assert value == pytest.approx(bisect_min_eigenvalue(pair), rel=1e-8)
