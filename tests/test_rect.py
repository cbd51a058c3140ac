"""Planar Korn-type inequalities on the thin rectangle."""

from dataclasses import astuple, replace
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from cylshell import rect
from cylshell.errors import ParameterError, ShapeError, SolverError

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


def test_planar_series_matches_polynomial_reference():
    # rows mix degree, exponential rate and trig kind; reference: numpy.polynomial
    # for p_i, the product rule for e^{rate x}, and closed-form trig derivatives
    coef = [[0.3, -1.0, 0.5, 2.0], [1.5, 0.0, 0.0, 0.0], [-0.2, 0.7, 0.0, 0.0]]
    freq, kind, rate = [2.0, 3.0, 0.0], ["sin", "cos", "one"], [0.0, -4.0, 1.5]
    series = rect.PlanarSeries(coef, freq, kind, rate=rate)

    def trig(kd, k, y, dy):
        if kd == "one":
            return np.full_like(y, 1.0 if dy == 0 else 0.0)
        return k**dy * {"sin": np.sin, "cos": np.cos}[kd](k * y + dy * math.pi / 2.0)

    # the 1 x n_y and n_x x 1 grids are the degenerate tensor grids
    for n_x, n_y in ((7, 5), (1, 5), (7, 1)):
        x, y = np.linspace(0.0, H, n_x)[:, None], np.linspace(0.0, L, n_y)[None, :]
        for dx in range(3):
            for dy in range(2):
                want = np.zeros((n_x, n_y))
                for c, k, kd, a in zip(coef, freq, kind, rate):
                    p = np.polynomial.Polynomial(c)
                    # d^dx (p e^{a x}) = e^{a x} sum_j C(dx, j) a^(dx - j) p^(j)
                    px = sum(math.comb(dx, j) * a ** (dx - j) * p.deriv(j)(x)
                             for j in range(dx + 1)) * np.exp(a * x)
                    want = want + px * trig(kd, k, y, dy)
                got = series(x, y, dx, dy)
                assert got.shape == (n_x, n_y)
                assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
        assert rect.ZERO(x, y, 1, 1).shape == (n_x, n_y) and not rect.ZERO(x, y).any()
    with pytest.raises(ShapeError):
        rect.PlanarSeries(coef, freq[:2], kind)
    with pytest.raises(ParameterError, match="tan"):
        rect.PlanarSeries(coef, freq, ["sin", "tan", "one"])


def test_planar_series_takes_a_tensor_grid():
    # x must be a column and y a row: any other shape is refused, not flattened
    series = rect.PlanarSeries([[1.0, 2.0]], [3.0], ["sin"])
    stack = rect.PlanarSeries([[[1.0, 2.0]]] * 2, [[3.0]] * 2, [["sin"]] * 2)
    col, row = np.linspace(0.0, H, 4)[:, None], np.linspace(0.0, L, 6)[None, :]
    assert series(col, row).shape == (4, 6)
    for x, y in ((col.ravel(), row), (col, row.ravel()), (row, col), (col, col),
                 (0.5 * H, row), (col, 0.5 * L), (col[None], row), (col, row[None])):
        with pytest.raises(ShapeError, match="x column and a y row"):
            series(x, y)
        with pytest.raises(ShapeError, match="x column and a y row"):
            stack(x, y)


def test_stacked_series_equals_each_member():
    # members mix degree, exponential rate and trig kind; each member of the
    # stack must give exactly what it gives alone
    rng = np.random.default_rng(5)
    kinds = np.array([["sin", "cos", "one"], ["one", "sin", "sin"], ["cos", "cos", "one"]])
    coef, freq = rng.uniform(-1.0, 1.0, (3, 3, 4)), rng.uniform(0.0, 9.0, (3, 3))
    rate = rng.uniform(-4.0, 4.0, (3, 3))
    stack = rect.PlanarSeries(coef, freq, kinds, rate=rate)
    members = [rect.PlanarSeries(*parts) for parts in zip(coef, freq, kinds, rate)]
    x, y = np.linspace(0.0, H, 7)[:, None], np.linspace(0.0, L, 5)[None, :]
    for dx in range(3):
        for dy in range(2):
            got = stack(x, y, dx, dy)
            assert got.shape == (3, 7, 5)
            for k, member in enumerate(members):
                assert np.array_equal(got[k], member(x, y, dx, dy)), (k, dx, dy)


def _field_by_field(trials, seed, draw, reports):
    """Reference scan: (violated forms, min margin), one field checked at a time."""
    rng = np.random.default_rng(seed)
    reps = []
    for t in range(trials):
        reps += reports(draw(rng), rect.TRIAL_ALPHAS[t % len(rect.TRIAL_ALPHAS)])
    return sum(not r.holds for r in reps), min(r.margin for r in reps)


def _lemma_reports(w, alpha):
    # the random-trial inequality of harmonic_lemma_check on one field
    grid = rect.planar_grid(H, L)
    n0, nx, ny = (math.sqrt(grid.norm_sq(w(grid.X, grid.Y, dx, dy)))
                  for dx, dy in ((0, 0), (1, 0), (0, 1)))
    return [rect.InequalityReport(lhs=ny**2, rhs=2.0 * math.sqrt(3.0) / H * n0 * nx + nx**2)]


SCANS = {
    "basic": (lambda trials: rect.basic_inequality_trials(H, L, trials=trials, seed=3),
              lambda rng: rect.random_zero_horizontal(rng, H, L),
              lambda field, alpha: list(rect.check_basic_inequality(field, alpha, H, L))),
    "periodic": (lambda trials: rect.periodic_inequality_trials(H, trials=trials, seed=3),
                 lambda rng: rect.random_periodic(rng, H),
                 lambda field, alpha: list(rect.check_periodic_inequalities(
                     field, H, alpha=alpha))),
    "harmonic": (lambda trials: astuple(rect.harmonic_lemma_check(
                     H, L, trials=trials, seed=3))[1:],
                 lambda rng: rect.random_harmonic(rng, H, L), _lemma_reports),
}


@pytest.mark.parametrize("draw", [
    lambda rng, shape: rect.random_zero_horizontal(rng, H, L, shape),
    lambda rng, shape: rect.random_periodic(rng, H, shape),
    lambda rng, shape: rect.random_harmonic(rng, H, L, shape),
], ids=["zero_horizontal", "periodic", "harmonic"])
def test_stacked_draw_equals_successive_single_draws(draw):
    # the trial scans draw their fields as stacks: member k of a stack of 7
    # is, bit for bit, the k-th of 7 single draws from the same seed, and
    # both leave the generator at the same point of its stream
    stacked_rng, single_rng = np.random.default_rng(11), np.random.default_rng(11)
    stack = draw(stacked_rng, (7,))
    for k in range(7):
        single = draw(single_rng, ())
        if isinstance(single, rect.PlanarField):
            assert stack.bc_tag == single.bc_tag
            pairs = ((stack.u, single.u), (stack.v, single.v))
        else:
            pairs = ((stack, single),)
        for stacked, alone in pairs:
            for name in ("coef", "freq", "kind", "rate"):
                a, b = getattr(stacked, name)[k], getattr(alone, name)
                assert a.shape == b.shape and np.array_equal(a, b), (k, name)
    assert stacked_rng.random() == single_rng.random()


@pytest.mark.parametrize("trials", [1, 23, 200])
@pytest.mark.parametrize("scan", sorted(SCANS))
def test_stacked_scan_equals_field_by_field(scan, trials):
    # 23 is not a multiple of the stack size: the last stack is partial
    run, draw, reports = SCANS[scan]
    assert run(trials) == _field_by_field(trials, 3, draw, reports)


def test_stacked_checks_equal_field_by_field():
    # a stacked draw and the single draws of the same seed are the same fields
    alphas = np.take(rect.TRIAL_ALPHAS, np.arange(23), mode="wrap")
    rng, stack_rng = np.random.default_rng(21), np.random.default_rng(21)
    fields = [rect.random_zero_horizontal(rng, H, L) for _ in alphas]
    stack = rect.random_zero_horizontal(stack_rng, H, L, alphas.shape)
    stacked = rect.check_basic_inequality(stack, alphas, H, L)
    single = [rect.check_basic_inequality(f, a, H, L) for f, a in zip(fields, alphas)]
    assert list(zip(*stacked)) == single
    fields = [rect.random_periodic(rng, H) for _ in alphas]
    stack = rect.random_periodic(stack_rng, H, alphas.shape)
    stacked = rect.check_periodic_inequalities(stack, H, alpha=alphas)
    single = [rect.check_periodic_inequalities(f, H, alpha=a) for f, a in zip(fields, alphas)]
    assert list(zip(*stacked)) == single


def _checked_on(n_x, check, *args):
    """check(*args) with its Gauss rule set to n_x x 48 nodes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rect, "_check_grid", lambda field, h, length: rect.planar_grid(
            h, length, n_x, rect._CHECK_NODES[1]))
        return check(*args)


@pytest.mark.parametrize("seed, h, length", [(3, H, L), (17, 0.05, 2.0), (29, 0.15, 0.5)])
def test_check_rule_of_polynomial_fields_is_exact(seed, h, length):
    # the trial fields are cubic in x, so their check integrands have degree
    # 6 in x, which the 4-node x rule integrates exactly: the 16-node rule
    # gives the same reports to rounding
    rng = np.random.default_rng(seed)
    alphas = np.take(rect.TRIAL_ALPHAS, np.arange(20), mode="wrap")
    basic = rect.random_zero_horizontal(rng, h, length, alphas.shape)
    periodic = rect.random_periodic(rng, h, alphas.shape)
    # degrees 5 and 1 in x: 6 nodes
    quintic = rect.PlanarField(rect.PlanarSeries(rng.uniform(-1.0, 1.0, (2, 6)), [1.0, 3.0],
                                                 ["cos", "sin"]),
                               rect.PlanarSeries([[0.5, -2.0]], [2.0], ["sin"]), "periodic_y")
    cases = ((rect.check_basic_inequality, (basic, alphas, h, length), length, 4),
             (rect.check_periodic_inequalities, (periodic, h, alphas), 2.0 * math.pi, 4),
             (rect.check_periodic_inequalities, (quintic, h, 0.5), 2.0 * math.pi, 6))
    for check, args, span, n_x in cases:
        grid = rect._check_grid(args[0], h, span)
        assert (grid.x_nodes.size, grid.y_nodes.size) == (n_x, 48)
        got, ref = check(*args), _checked_on(16, check, *args)
        for got_form, ref_form in zip(got, ref):
            for rep, ref_rep in zip(np.atleast_1d(got_form), np.atleast_1d(ref_form)):
                assert rep.lhs == pytest.approx(ref_rep.lhs, rel=1e-14)
                assert rep.rhs == pytest.approx(ref_rep.rhs, rel=1e-14)


def test_check_rule_of_other_fields_is_16_by_48():
    # a row with a nonzero rate, or a component that is not a PlanarSeries,
    # keeps the 16 x 48 rule, and with it the reports bit for bit
    rng = np.random.default_rng(8)
    drawn = rect.random_zero_horizontal(rng, H, L)
    rated = rect.PlanarSeries([[1.0], [0.5]], [1.0, 3.0], ["sin", "cos"], rate=[2.0, 0.0])
    cases = (
        (rect.check_basic_inequality,
         (rect.PlanarField(rect.extremal_harmonic(H, L), drawn.v, "zero_horizontal"), 0.5, H, L),
         L),
        (rect.check_basic_inequality,
         (rect.PlanarField(drawn.u, _Bilinear(), "zero_horizontal"), -1.0, H, L), L),
        (rect.check_periodic_inequalities,
         (rect.PlanarField(rated, rect.random_periodic(rng, H).v, "periodic_y"), H, 0.5),
         2.0 * math.pi),
    )
    for check, args, span in cases:
        grid = rect._check_grid(args[0], H, span)
        assert (grid.x_nodes.size, grid.y_nodes.size) == rect._CHECK_NODES == (16, 48)
        assert check(*args) == _checked_on(16, check, *args)


def test_stack_with_one_bad_member_raises():
    rng = np.random.default_rng(4)
    stack = rect.random_zero_horizontal(rng, H, L, (5,))
    # cos rows do not vanish on the horizontal edges
    kind = stack.u.kind.copy()
    kind[2] = "cos"
    with pytest.raises(ShapeError, match="member 2"):
        rect.check_basic_inequality(replace(stack, u=replace(stack.u, kind=kind)), 0.5, H, L)
    stack = rect.random_periodic(rng, H, (5,))
    # a non-integer frequency breaks the 2 pi period
    freq = stack.v.freq.copy()
    freq[2] += 0.5
    with pytest.raises(ShapeError, match="member 2"):
        rect.check_periodic_inequalities(replace(stack, v=replace(stack.v, freq=freq)), H)


@pytest.mark.parametrize("scan, args", [
    (rect.basic_inequality_trials, (H, L)),
    (rect.harmonic_lemma_check, (H, L)),
    (rect.periodic_inequality_trials, (H,)),
], ids=["basic", "harmonic", "periodic"])
def test_trial_scan_memory(scan, args):
    # one stack of random fields at a time: peaks of 0.27, 0.43 and 0.27 MiB
    # (basic, harmonic, periodic) at 10 fields a stack, 0.65, 0.79 and 0.65
    # MiB at 25; a one-trial run first keeps one-time allocations out of the
    # peak
    scan(*args, trials=1)
    tracemalloc.start()
    try:
        scan(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_verify_planar_bc():
    u = rect.PlanarSeries([[1.0]], [math.pi / L], ["sin"])
    good = rect.PlanarField(u, rect.ZERO, bc_tag="zero_horizontal")
    assert rect.verify_planar_bc(good, H, L)
    bad = rect.PlanarField(
        rect.PlanarSeries([[1.0]], [math.pi / L], ["cos"]),
        rect.ZERO, bc_tag="zero_horizontal")
    with pytest.raises(ShapeError):
        rect.verify_planar_bc(bad, H, L)
    with pytest.raises(ParameterError):
        rect.verify_planar_bc(rect.PlanarField(u, rect.ZERO, bc_tag="mirror"), H, L)


def test_verify_planar_bc_periodic_defect():
    # cos(y / 2) has period 4 pi: its defect 2 sits on the sample's end columns
    v = rect.PlanarSeries([[1.0]], [0.5], ["cos"])
    with pytest.raises(ShapeError, match="period-2pi defect"):
        rect.verify_planar_bc(rect.PlanarField(rect.ZERO, v, bc_tag="periodic_y"),
                              H, 2.0 * math.pi)


def test_verify_planar_bc_samples_each_component_once():
    # the edges are the end columns of the scale's 33 x 33 sample, so each
    # component is called once per check, stacked or not
    rng = np.random.default_rng(5)
    draws = {"zero_horizontal": (lambda shape: rect.random_zero_horizontal(rng, H, L, shape), L),
             "periodic_y": (lambda shape: rect.random_periodic(rng, H, shape), 2.0 * math.pi)}
    for draw, length in draws.values():
        for member in (draw(()), draw((2,))):
            calls = []

            def counted(c, name):
                def component(x, y, dx=0, dy=0):
                    calls.append(name)
                    return c(x, y, dx, dy)
                return component

            spied = rect.PlanarField(counted(member.u, "u"), counted(member.v, "v"),
                                     bc_tag=member.bc_tag)
            assert rect.verify_planar_bc(spied, H, length)
            assert sorted(calls) == ["u", "v"]


def test_basic_inequality_parameter_checks():
    u = rect.PlanarSeries([[1.0]], [math.pi / L], ["sin"])
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
    # a degenerate rectangle is rejected, not reported as a violation
    for bad_L in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            rect.basic_inequality_trials(H, bad_L, trials=1)
        with pytest.raises(ParameterError):
            rect.harmonic_lemma_check(H, bad_L, trials=1)


def test_basic_inequality_single_field():
    u = rect.PlanarSeries([[0.0, 1.0]], [math.pi / L], ["sin"])
    v = rect.PlanarSeries([[1.0, -2.0]], [2 * math.pi / L], ["cos"])
    field = rect.PlanarField(u, v, bc_tag="zero_horizontal")
    product, split = rect.check_basic_inequality(field, 1.0, H, L)
    assert product.holds and split.holds
    assert product.margin > 0 and split.margin > 0


def test_basic_inequality_trials_no_violations():
    violations, min_margin = rect.basic_inequality_trials(H, L, trials=50)
    assert violations == 0
    assert min_margin > 0
    # pins the seeded draw order of random_zero_horizontal
    assert min_margin == pytest.approx(877.4428843198876, rel=1e-12)


def test_extremal_harmonic_is_sharp():
    report = rect.harmonic_lemma_check(H, L, trials=10)
    assert report.equality_error <= 1e-8
    assert report.hi_violations == 0
    assert report.hi_min_margin > 0
    assert report.hi_min_margin == pytest.approx(29.518303730321836, rel=1e-12)


def test_harmonic_lemma_tau_range():
    # tau = pi h / L outside [1e-8, 10]: the extremal's w_x cancels to 0 or
    # its exponentials overflow, so the check would divide by zero or
    # report false violations
    for h, bad_L in ((H, 1e30), (1e-300, L), (H, 1e-3), (H, 1e-300)):
        with pytest.raises(ParameterError, match="outside \\[1e-8, 10\\]"):
            rect.harmonic_lemma_check(h, bad_L, trials=1)
    for h, good_L in ((H, math.pi * H / 2e-8), (H, math.pi * H / 9.0)):
        assert rect.harmonic_lemma_check(h, good_L, trials=2).equality_error <= 1e-8


def test_harmonic_lemma_needs_a_trial():
    # a check of no random fields would report success without testing anything
    for trials in (0, -5):
        with pytest.raises(ParameterError):
            rect.harmonic_lemma_check(H, L, trials=trials)


def test_harmonic_projection_reproduces_harmonic_data():
    field = rect.PlanarField(_Bilinear(), rect.ZERO, bc_tag=None)
    sol = rect.harmonic_projection(field, H, L, n_x=24, n_y=48)
    exact = sol.x[:, None] * sol.y[None, :]
    assert float(np.max(np.abs(sol.w - exact))) <= 1e-12
    for n_x, n_y in ((1, 48), (24, 0)):
        with pytest.raises(ParameterError):
            rect.harmonic_projection(field, H, L, n_x=n_x, n_y=n_y)


@pytest.mark.parametrize("h, length", [(0.0, L), (H, 0.0), (H, math.inf), (math.nan, L),
                                       (-H, L)])
def test_harmonic_projection_rejects_a_bad_rectangle(h, length):
    # a rectangle with h or L zero, infinite, NaN or negative is rejected
    # before the solve, which would give a NaN residual or (h < 0) solve on [h, 0]
    field = rect.PlanarField(_Bilinear(), rect.ZERO, bc_tag=None)
    with pytest.raises(ParameterError, match="rectangle"):
        rect.harmonic_projection(field, h, length)


def test_harmonic_projection_rejects_a_nan_field():
    # a NaN residual fails the gate instead of passing it
    def nan_u(x, y, dx=0, dy=0):
        return np.full(np.broadcast(x, y).shape, math.nan)

    with pytest.raises(SolverError, match="residual"):
        rect.harmonic_projection(rect.PlanarField(nan_u, rect.ZERO, bc_tag=None), H, L)


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
    # the first seed-1234 field at alpha = 1, pinned: the estimates read the
    # node-grid data of the projection
    field = rect.random_zero_horizontal(np.random.default_rng(1234), H, L)
    rep = rect.projection_estimates(field, alpha=1.0, h=H, L=L)
    assert rep.grad_diff == pytest.approx(3.106336926720022, rel=1e-12)
    assert rep.value_diff == pytest.approx(0.07870051051131415, rel=1e-12)
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
    # pins the seeded draw order of random_periodic
    assert min_margin == pytest.approx(39.55418203029562, rel=1e-12)


# the span of random_periodic: x^j cos(k y), k = 0..8, and x^j sin(k y), k = 1..8,
# j = 0..3, in u and in v
SPAN_ROWS = [("cos", k) for k in range(9)] + [("sin", k) for k in range(1, 9)]


def _span_forms(starred):
    """Gram matrices (G, E, U, V) of the 136 span fields on the periodic scan grid.

    G and E are ||G||^2 and ||sym G||^2 of the alpha = 1 gradient, or of the
    starred one; U and V are ||u||^2 and ||v||^2.
    """
    grid = rect.planar_grid(H, 2.0 * math.pi, n_x=16, n_y=48)
    weights = (grid.x_weights[:, None] * grid.y_weights[None, :]).ravel()
    shape = (grid.x_nodes.size, grid.y_nodes.size)
    cols = {key: [] for key in ("xx", "xy", "yx", "yy", "u", "v")}
    for comp in range(2):
        for kind, k in SPAN_ROWS:
            for j in range(4):
                series = rect.PlanarSeries([np.eye(4)[j]], [k], [kind])
                u, v = (series, rect.ZERO) if comp == 0 else (rect.ZERO, series)
                field = rect.PlanarField(u, v, bc_tag="periodic_y")
                d = rect.planar_partials(field, grid.X, grid.Y)
                vals = field.v(grid.X, grid.Y)
                g = (rect.starred_gradient(d, vals) if starred
                     else rect.modified_gradient(d, 1.0))
                for key, val in (*g.items(), ("u", d["u"]), ("v", vals)):
                    cols[key].append(np.broadcast_to(val, shape).ravel())
    a = {key: np.array(rows) for key, rows in cols.items()}

    def gram(p, q):
        return (p * weights) @ q.T

    off = 0.5 * (a["xy"] + a["yx"])
    G = sum(gram(a[key], a[key]) for key in ("xx", "xy", "yx", "yy"))
    E = gram(a["xx"], a["xx"]) + 2.0 * gram(off, off) + gram(a["yy"], a["yy"])
    return G, E, gram(a["u"], a["u"]), gram(a["v"], a["v"])


@pytest.mark.parametrize("starred,t,sup", [(False, 177.8, 6.913), (True, 7.08, 6.274)])
def test_periodic_constant_violated_in_trial_span(starred, t, sup):
    # PERIODIC_C0 = 2.0 is broken by a field of the trial generator's own span.
    # e (u/h + e) <= (1 + t) e^2 + u^2 / (4 t h^2) for every t > 0, so the top
    # generalized eigenvector of (G, (1 + t) E + U / (4 t h^2) [+ V]) gives a
    # lower bound on the best constant.  At alpha = 1 the constant v lies in the
    # kernel of both forms, so the pencil is taken on the range of B.
    G, E, U, V = _span_forms(starred)
    B = (1.0 + t) * E + U / (4.0 * t * H**2) + (V if starred else 0.0)
    lam, Q = np.linalg.eigh(B)
    keep = lam > 1e-12 * lam[-1]
    P = Q[:, keep] / np.sqrt(lam[keep])
    mu, Y = np.linalg.eigh(P.T @ G @ P)
    assert mu[-1] == pytest.approx(sup, rel=1e-3)
    c = (P @ Y[:, -1]).reshape(2, len(SPAN_ROWS), 4)
    kinds, freqs = zip(*SPAN_ROWS)
    witness = rect.PlanarField(rect.PlanarSeries(c[0], freqs, kinds),
                               rect.PlanarSeries(c[1], freqs, kinds), bc_tag="periodic_y")
    rep_alpha, rep_star = rect.check_periodic_inequalities(witness, H)
    rep = rep_star if starred else rep_alpha
    assert rep.holds is False
    assert rep.lhs / rep.rhs > 3.0
