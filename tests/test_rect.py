"""Planar Korn-type inequalities on the thin rectangle."""

import math

import numpy as np
import pytest
import scipy.fft

from cylshell import rect
from cylshell.errors import ParameterError, ShapeError

H, L = 0.1, 1.0


class _Bilinear:
    """w = x y: harmonic, with closed-form derivatives."""

    def __call__(self, x, y, dx=0, dy=0):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(x, y).shape
        if (dx, dy) == (0, 0):
            return x * y
        if (dx, dy) == (1, 0):
            return np.broadcast_to(y, shape).copy()
        if (dx, dy) == (0, 1):
            return np.broadcast_to(x, shape).copy()
        return np.zeros(shape)


def test_phi_factor_limit_and_continuity():
    assert rect.phi_factor(0.0) == pytest.approx(3.0, rel=1e-12)
    # series and direct branches agree across the switch point
    assert rect.phi_factor(0.01 - 1e-9) == pytest.approx(
        rect.phi_factor(0.01 + 1e-9), rel=1e-9)
    # decreasing in tau
    assert rect.phi_factor(1.0) < rect.phi_factor(0.5) < 3.0


def test_planar_grid_integrates_exactly():
    grid = rect.planar_grid(H, L, n_x=4, n_y=4)
    assert grid.integrate(np.ones((1, 1))) == pytest.approx(H * L, rel=1e-14)
    assert grid.norm_sq(grid.X * np.ones_like(grid.Y)) == pytest.approx(
        H**3 * L / 3.0, rel=1e-13)


def test_verify_planar_bc():
    u = rect.PolyTrigTerm(np.polynomial.Polynomial([1.0]), "sin", math.pi / L)
    good = rect.PlanarField(u, rect.ZERO, bc_tag="zero_horizontal")
    assert rect.verify_planar_bc(good, H, L)
    bad = rect.PlanarField(
        rect.PolyTrigTerm(np.polynomial.Polynomial([1.0]), "cos", math.pi / L),
        rect.ZERO, bc_tag="zero_horizontal")
    with pytest.raises(ShapeError):
        rect.verify_planar_bc(bad, H, L)
    with pytest.raises(ParameterError):
        rect.verify_planar_bc(rect.PlanarField(u, rect.ZERO, bc_tag="mirror"), H, L)


def test_basic_inequality_parameter_checks():
    u = rect.PolyTrigTerm(np.polynomial.Polynomial([1.0]), "sin", math.pi / L)
    field = rect.PlanarField(u, rect.ZERO, bc_tag="zero_horizontal")
    with pytest.raises(ParameterError):
        rect.check_basic_inequality(field, 2.0, H, L)
    with pytest.raises(ParameterError):
        rect.check_basic_inequality(field, 0.5, 1.5, L)
    free = rect.PlanarField(u, rect.ZERO, bc_tag=None)
    with pytest.raises(ParameterError):
        rect.check_basic_inequality(free, 0.5, H, L)
    for trials in (0, -5):
        with pytest.raises(ParameterError):
            rect.basic_inequality_trials(H, L, trials=trials)
        with pytest.raises(ParameterError):
            rect.periodic_inequality_trials(H, trials=trials)


def test_basic_inequality_single_field():
    u = rect.PolyTrigTerm(np.polynomial.Polynomial([0.0, 1.0]), "sin", math.pi / L)
    v = rect.PolyTrigTerm(np.polynomial.Polynomial([1.0, -2.0]), "cos", 2 * math.pi / L)
    field = rect.PlanarField(u, v, bc_tag="zero_horizontal")
    rep = rect.check_basic_inequality(field, 1.0, H, L)
    assert rep.holds
    assert rep.margin > 0 and rep.margin_rounded > 0


def test_basic_inequality_trials_no_violations():
    violations, min_margin = rect.basic_inequality_trials(H, L, trials=50)
    assert violations == 0
    assert min_margin > 0


def test_extremal_harmonic_is_sharp():
    report = rect.harmonic_lemma_check(H, L, trials=10)
    assert report.equality_error <= 1e-8
    assert report.hi_violations == 0
    assert report.hi_min_margin > 0


def test_harmonic_projection_reproduces_harmonic_data():
    field = rect.PlanarField(_Bilinear(), rect.ZERO, bc_tag=None)
    sol = rect.harmonic_projection(field, H, L, n_x=24, n_y=48)
    exact = sol.x[:, None] * sol.y[None, :]
    assert float(np.max(np.abs(sol.w - exact))) <= 1e-12
    for n_x, n_y in ((1, 48), (24, 0)):
        with pytest.raises(ParameterError):
            rect.harmonic_projection(field, H, L, n_x=n_x, n_y=n_y)


def test_harmonic_projection_second_order_convergence():
    # halving the mesh cuts the error against exact harmonic data by ~4x
    w = rect.extremal_harmonic(H, L)
    field = rect.PlanarField(w, rect.ZERO, bc_tag=None)
    errs = []
    for n_x, n_y in ((16, 32), (32, 64)):
        sol = rect.harmonic_projection(field, H, L, n_x=n_x, n_y=n_y)
        exact = w(sol.x[:, None], sol.y[None, :])
        errs.append(float(np.max(np.abs(sol.w - exact))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def dstn_interior(w, hx, hy):
    """Oracle: the 5-point Dirichlet solve with boundary data w by scipy's DST-I."""
    n_x, n_y = w.shape[0] - 1, w.shape[1] - 1
    cx, cy = 1.0 / hx**2, 1.0 / hy**2
    b = np.zeros((n_x - 1, n_y - 1))
    b[0, :] += cx * w[0, 1:-1]
    b[-1, :] += cx * w[-1, 1:-1]
    b[:, 0] += cy * w[1:-1, 0]
    b[:, -1] += cy * w[1:-1, -1]
    eig = (2.0 * cx * (1.0 - np.cos(np.pi * np.arange(1, n_x) / n_x))[:, None]
           + 2.0 * cy * (1.0 - np.cos(np.pi * np.arange(1, n_y) / n_y))[None, :])
    return scipy.fft.idstn(scipy.fft.dstn(b, type=1) / eig, type=1)


@pytest.mark.parametrize("n_x,n_y", [(16, 32), (48, 96)])
def test_harmonic_projection_matches_scipy_dst(n_x, n_y):
    field = rect.random_periodic(np.random.default_rng(8), H)
    sol = rect.harmonic_projection(field, H, L, n_x=n_x, n_y=n_y)
    ref = dstn_interior(sol.w, sol.x[1] - sol.x[0], sol.y[1] - sol.y[0])
    scale = float(np.max(np.abs(sol.w)))
    assert float(np.max(np.abs(sol.w[1:-1, 1:-1] - ref))) <= 1e-13 * scale


def test_projection_estimates_hold_on_random_fields():
    rng = np.random.default_rng(99)
    for _ in range(3):
        field = rect.random_zero_horizontal(rng, H, L)
        rep = rect.projection_estimates(field, alpha=0.5, h=H, L=L)
        assert rep.holds
    free = rect.PlanarField(rect.ZERO, rect.ZERO, bc_tag=None)
    with pytest.raises(ParameterError):
        rect.projection_estimates(free, 0.5, H, L)


def test_periodic_inequalities():
    rng = np.random.default_rng(11)
    field = rect.random_periodic(rng, H)
    rep_a, rep_s = rect.check_periodic_inequalities(field, H)
    assert rep_a.holds and rep_s.holds
    with pytest.raises(ParameterError):
        rect.check_periodic_inequalities(field, 0.5)  # h >= sigma


def test_periodic_trials_no_violations():
    violations, min_margin = rect.periodic_inequality_trials(H, trials=50)
    assert violations == 0
    assert min_margin > 0
