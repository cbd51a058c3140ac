"""Planar Korn-type inequalities on the thin rectangle."""

from dataclasses import astuple, replace
import math
import tracemalloc

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


def test_planar_series_matches_polynomial_reference():
    # rows mix degree, exponential rate and trig kind; reference: numpy.polynomial
    # for p_i, the product rule for e^{rate x}, and closed-form trig derivatives
    coef = [[0.3, -1.0, 0.5, 2.0], [1.5, 0.0, 0.0, 0.0], [-0.2, 0.7, 0.0, 0.0]]
    freq, kind, rate = [2.0, 3.0, 0.0], ["sin", "cos", "one"], [0.0, -4.0, 1.5]
    series = rect.PlanarSeries(coef, freq, kind, rate=rate)
    x, y = np.linspace(0.0, H, 7)[:, None], np.linspace(0.0, L, 5)[None, :]

    def trig(kd, k, dy):
        if kd == "one":
            return np.full_like(y, 1.0 if dy == 0 else 0.0)
        return k**dy * {"sin": np.sin, "cos": np.cos}[kd](k * y + dy * math.pi / 2.0)

    for dx in range(3):
        for dy in range(2):
            want = np.zeros((7, 5))
            for c, k, kd, a in zip(coef, freq, kind, rate):
                p = np.polynomial.Polynomial(c)
                # d^dx (p e^{a x}) = e^{a x} sum_j C(dx, j) a^(dx - j) p^(j)
                px = sum(math.comb(dx, j) * a ** (dx - j) * p.deriv(j)(x)
                         for j in range(dx + 1)) * np.exp(a * x)
                want = want + px * trig(kd, k, dy)
            got = series(x, y, dx, dy)
            assert got.shape == (7, 5)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
    assert rect.ZERO(x, y, 1, 1).shape == (7, 5) and not rect.ZERO(x, y).any()
    with pytest.raises(ShapeError):
        rect.PlanarSeries(coef, freq[:2], kind)


def test_stacked_series_equals_each_member():
    # members mix degree, exponential rate and trig kind; each member of the
    # stack must give exactly what it gives alone
    rng = np.random.default_rng(5)
    kinds = np.array([["sin", "cos", "one"], ["one", "sin", "sin"], ["cos", "cos", "one"]])
    members = [rect.PlanarSeries(rng.uniform(-1.0, 1.0, (3, 4)), rng.uniform(0.0, 9.0, 3),
                                 kind, rate=rng.uniform(-4.0, 4.0, 3)) for kind in kinds]
    stack = rect.stack_series(members)
    x, y = np.linspace(0.0, H, 7)[:, None], np.linspace(0.0, L, 5)[None, :]
    for dx in range(3):
        for dy in range(2):
            got = stack(x, y, dx, dy)
            assert got.shape == (3, 7, 5)
            for k, member in enumerate(members):
                assert np.array_equal(got[k], member(x, y, dx, dy)), (k, dx, dy)
    with pytest.raises(ShapeError):
        rect.stack_series([members[0], rect.PlanarSeries([[1.0]], [1.0], ["sin"])])
    with pytest.raises(ShapeError):
        rect.stack_series([stack, stack])


def _field_by_field(trials, seed, draw, reports):
    """Reference scan: (violations, min margin), one field checked at a time."""
    rng = np.random.default_rng(seed)
    reps = []
    for t in range(trials):
        reps += reports(draw(rng), rect.TRIAL_ALPHAS[t % len(rect.TRIAL_ALPHAS)])
    margins = [r.margin for r in reps]
    margins += [r.margin_rounded for r in reps if r.rhs_rounded is not None]
    return sum(not r.holds for r in reps), min(margins)


def _lemma_reports(w, alpha):
    # the random-trial inequality of harmonic_lemma_check on one field
    grid = rect.planar_grid(H, L)
    n0, nx, ny = (math.sqrt(grid.norm_sq(w(grid.X, grid.Y, dx, dy)))
                  for dx, dy in ((0, 0), (1, 0), (0, 1)))
    return [rect.InequalityReport(lhs=ny**2, rhs=2.0 * math.sqrt(3.0) / H * n0 * nx + nx**2)]


BASIC_GRID = rect.planar_grid(H, L, n_x=16, n_y=48)
PERIODIC_GRID = rect.planar_grid(H, 2.0 * math.pi, n_x=16, n_y=48)
SCANS = {
    "basic": (lambda trials: rect.basic_inequality_trials(H, L, trials=trials, seed=3),
              lambda rng: rect.random_zero_horizontal(rng, H, L),
              lambda field, alpha: [rect.check_basic_inequality(field, alpha, H, L,
                                                                 grid=BASIC_GRID)]),
    "periodic": (lambda trials: rect.periodic_inequality_trials(H, trials=trials, seed=3),
                 lambda rng: rect.random_periodic(rng, H),
                 lambda field, alpha: list(rect.check_periodic_inequalities(
                     field, H, alpha=alpha, grid=PERIODIC_GRID))),
    "harmonic": (lambda trials: astuple(rect.harmonic_lemma_check(
                     H, L, trials=trials, seed=3))[1:],
                 lambda rng: rect.random_harmonic(rng, H, L), _lemma_reports),
}


@pytest.mark.parametrize("trials", [1, 23, 200])
@pytest.mark.parametrize("scan", sorted(SCANS))
def test_stacked_scan_equals_field_by_field(scan, trials):
    # 23 is not a multiple of the stack size: the last stack is partial
    run, draw, reports = SCANS[scan]
    assert run(trials) == _field_by_field(trials, 3, draw, reports)


def test_stacked_checks_equal_field_by_field():
    rng = np.random.default_rng(21)
    alphas = np.take(rect.TRIAL_ALPHAS, np.arange(23), mode="wrap")
    fields = [rect.random_zero_horizontal(rng, H, L) for _ in alphas]
    stacked = rect.check_basic_inequality(rect.stack_fields(fields), alphas, H, L)
    assert stacked == [rect.check_basic_inequality(f, a, H, L) for f, a in zip(fields, alphas)]
    fields = [rect.random_periodic(rng, H) for _ in alphas]
    stacked = rect.check_periodic_inequalities(rect.stack_fields(fields), H, alpha=alphas)
    single = [rect.check_periodic_inequalities(f, H, alpha=a) for f, a in zip(fields, alphas)]
    assert list(zip(*stacked)) == single


def test_stack_with_one_bad_member_raises():
    rng = np.random.default_rng(4)
    fields = [rect.random_zero_horizontal(rng, H, L) for _ in range(5)]
    good = fields[2]
    # cos rows do not vanish on the horizontal edges
    fields[2] = replace(good, u=replace(good.u, kind=np.full(6, "cos")))
    with pytest.raises(ShapeError, match="member 2"):
        rect.check_basic_inequality(rect.stack_fields(fields), 0.5, H, L)
    fields = [rect.random_periodic(rng, H) for _ in range(5)]
    # a non-integer frequency breaks the 2 pi period
    fields[2] = replace(fields[2], v=replace(fields[2].v, freq=fields[2].v.freq + 0.5))
    with pytest.raises(ShapeError, match="member 2"):
        rect.check_periodic_inequalities(rect.stack_fields(fields), H)
    with pytest.raises(ShapeError):
        rect.stack_fields([good, fields[0]])


@pytest.mark.parametrize("scan, args", [
    (rect.basic_inequality_trials, (H, L)),
    (rect.harmonic_lemma_check, (H, L)),
    (rect.periodic_inequality_trials, (H,)),
], ids=["basic", "harmonic", "periodic"])
def test_trial_scan_memory(scan, args):
    # one stack of random fields at a time: 0.4-0.8 MB at 10 fields a stack,
    # 1.5-1.8 MB for the basic and periodic scans at 25; a one-trial run first
    # keeps one-time allocations out of the peak
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
    rep = rect.check_basic_inequality(field, 1.0, H, L)
    assert rep.holds
    assert rep.margin > 0 and rep.margin_rounded > 0


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
