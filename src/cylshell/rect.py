"""Planar Korn-type inequalities on a thin rectangle.

Everything here lives on Omega = [0, h] x [0, L] with a vector field
U = (u, v).  The modified gradients

    G_alpha = [[u_x, u_y], [v_x, v_y + alpha u]],      e_alpha = sym(G_alpha),
    G_*     = [[u_x, u_y - v], [v_x, v_y + u]],        e_*     = sym(G_*),

obey Korn-type bounds with explicit constants: with u = 0 on the horizontal
edges,

    ||G_a||^2 <= 100 ||e_a|| (||u||/h + ||e_a||)
    ||G_a||^2 <= 99 ||e_a||^2 + (57/h) ||u|| ||e_a||,

and periodic-in-y variants with an absolute constant C0.  The key analytic
ingredient is a bound for harmonic functions vanishing on the horizontal
edges,

    ||w_y||^2 - ||w_x||^2 <= (2 sqrt(Phi(pi h/L)) / h) ||w|| ||w_x||,

sharp on w = cosh(pi(x - h/2)/L) sin(pi y/L), together with the Laplace
(Helmholtz) projection estimate ||grad u - grad w|| <= (sqrt(2) + 1/pi) ||e_a||.
The module checks all of these by quadrature on seeded random fields and
solves the projection problem by a 5-point finite-difference scheme.

A field component is any callable c(x, y, dx=0, dy=0) giving its (dx, dy)
partial derivative.  Every field the module builds is one PlanarSeries: a
coefficient array of polynomial-or-exponential-in-x, trig-in-y rows.  A
series is evaluated on a tensor grid, x a column and y a row, as one batched
matrix product: the x-factors of its rows times their y-factors.

Each form of an inequality gives its own InequalityReport: the basic check
returns (product form, split form), the periodic one (alpha form, starred
form), each on the Gauss rule _check_grid sizes for the field on its own
rectangle: 4 x 48 nodes for the cubic trial fields, 16 x 48 for a field
that is not polynomial in x.  A PlanarSeries may carry a leading member
axis, a stack of series of the same shape.  The checks reduce over the
trailing (x, y) grid axes, so a single field is a stack of one: a stacked
field gives one report per form and member, equal bit for bit to what that
member gives alone.  The randomized scans draw a stack of
_TRIAL_CHUNK fields in one call, in seeded order, and check it at once.
"""

from dataclasses import dataclass
import math

import numpy as np

from cylshell.errors import ParameterError, ShapeError, SolverError
from cylshell.fields import _gauss, _trig

# Frozen regression constants for the periodic-in-y variants: the theorems
# only assert existence of C0 and sigma, so these are pinned from the first
# randomized scan (seed 1234, 200 trials) rather than taken from a display.
# C0 = 2.0 is too small: a field of the trial span breaks both periodic forms
# (tests/test_rect.py::test_periodic_constant_violated_in_trial_span).
PERIODIC_C0 = 2.0
PERIODIC_SIGMA = 0.2

# the alpha values the randomized scans cycle through
TRIAL_ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
# random fields checked as one stack: at 10 the tracemalloc peaks of the
# basic, harmonic and periodic scans are 0.27, 0.43 and 0.27 MiB (0.65, 0.79
# and 0.65 MiB at 25), while the per-call Python of the series is paid once
# per stack
_TRIAL_CHUNK = 10
# Gauss nodes (n_x, n_y) of the basic and periodic checks on a field that is
# not all polynomial in x; _check_grid gives polynomial fields fewer x nodes
_CHECK_NODES = (16, 48)
# the trig kinds of a series row, as in fields._trig
_KINDS = ("cos", "sin", "one")


# ---------------------------------------------------------------------------
# planar fields


@dataclass(frozen=True, eq=False)
class PlanarSeries:
    """sum_i p_i(x) e^{rate_i x} trig_i(freq_i y), one row per term.

    coef[i] holds the x-coefficients of p_i in ascending powers; freq[i],
    kind[i] ('cos', 'sin' or 'one', as in fields._trig; another kind is a
    ParameterError) and rate[i] (a scalar applies to every row) give its
    y-factor and exponential rate.  Polynomial
    rows have rate 0, harmonic rows degree 0.  Each x-derivative maps a row's
    coefficients c to c' + rate c.

    A call takes a tensor grid, x a column (n_x, 1) and y a row (1, n_y), and
    any other shape is a ShapeError.  It returns the batched matrix product
    P @ T of the x-factor P (n_x, rows), the dx-th derivative of each
    p_i(x) e^{rate_i x} by Horner, and the y-factor T (rows, n_y), the dy-th
    derivative of each trig row.

    A leading member axis makes a stack of series with the same row count and
    degree: coef of shape (members, rows, deg) and freq, kind, rate of shape
    (members, rows).  A call then returns shape (members, n_x, n_y), each
    member one product of its own factors, bit for bit as it would alone.
    """

    coef: np.ndarray
    freq: np.ndarray
    kind: np.ndarray
    rate: np.ndarray = 0.0

    def __post_init__(self):
        kind = np.asarray(self.kind, dtype=str)
        coef, freq = np.asarray(self.coef, dtype=float), np.asarray(self.freq, dtype=float)
        if (coef.ndim not in (2, 3) or coef.shape[-1] < 1
                or not coef.shape[:-1] == kind.shape == freq.shape):
            raise ShapeError(f"coef {coef.shape}, freq {freq.shape} and kind "
                             f"{kind.shape} need one row per term")
        unknown = set(kind.ravel().tolist()) - set(_KINDS)
        if unknown:
            raise ParameterError(f"trig kinds {sorted(unknown)} not among {_KINDS}")
        rate = np.broadcast_to(np.asarray(self.rate, dtype=float), kind.shape)
        for name, value in (("coef", coef), ("freq", freq), ("kind", kind), ("rate", rate)):
            object.__setattr__(self, name, value)

    def __call__(self, x, y, dx=0, dy=0):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim != 2 or x.shape[1] != 1 or y.ndim != 2 or y.shape[0] != 1:
            raise ShapeError(f"a planar series takes an x column and a y row, "
                             f"got x {x.shape} and y {y.shape}")
        c = self.coef
        for _ in range(dx):
            dc = np.zeros_like(c)
            dc[..., :-1] = c[..., 1:] * np.arange(1, c.shape[-1])
            c = dc + self.rate[..., None] * c
        # x-factor P (..., n_x, rows): Horner in x, as polyval does, times e^{rate x}
        c = c[..., None, :, :]
        px = c[..., -1] + x * 0.0
        for j in range(c.shape[-1] - 2, -1, -1):
            px = c[..., j] + px * x
        p = px * np.exp(self.rate[..., None, :] * x)
        # y-factor T (..., rows, n_y): each kind's rows in one call
        t = np.empty(self.kind.shape + y.shape[1:])
        for k in _KINDS:
            rows = self.kind == k
            if rows.any():
                t[rows] = _trig(k, self.freq[rows][:, None], y, dy)
        return p @ t


ZERO = PlanarSeries(np.zeros((0, 1)), (), ())


@dataclass(frozen=True)
class PlanarField:
    """Vector field (u, v) on [0, h] x [0, L].

    u and v are any callables c(x, y, dx=0, dy=0) returning the (dx, dy)
    partial derivative, broadcast over x and y; every field the module
    generates has PlanarSeries components.  bc_tag: 'zero_horizontal'
    (u = 0 at y in {0, L}) or 'periodic_y' (period 2 pi in y).  With
    stacked series the field is a stack of members.
    """

    u: object
    v: object
    bc_tag: str = None


def _peak(values):
    """max |values| over the trailing two sample axes, one value per member."""
    return np.max(np.abs(values), axis=(-2, -1))


def verify_planar_bc(field, h, L):
    """Check the boundary tag on a 33 x 33 sample of [0, h] x [0, L], to relative 1e-9.

    The scale is the sample's largest |u| or |v|.  Its first and last columns
    are the edges y = 0 and y = L (linspace ends on its endpoints), where
    'zero_horizontal' needs u = 0 and 'periodic_y' equal u and v; the
    periodic caller passes the period L = 2 pi.  A stacked field is checked
    member by member, each against its own scale.  True or raises.
    """
    if field.bc_tag is None:
        return True
    xs = np.linspace(0.0, h, 33)[:, None]
    ys = np.linspace(0.0, L, 33)[None, :]
    u, v = field.u(xs, ys), field.v(xs, ys)
    scale = np.maximum(np.maximum(_peak(u), _peak(v)), 1e-300)
    if field.bc_tag == "zero_horizontal":
        what, err = "horizontal-edge value", _peak(u[..., [0, -1]])
    elif field.bc_tag == "periodic_y":
        what = "period-2pi defect"
        err = np.maximum(*(_peak(c[..., :1] - c[..., -1:]) for c in (u, v)))
    else:
        raise ParameterError(f"unknown planar bc tag {field.bc_tag!r}")
    bad = np.flatnonzero(err > 1e-9 * scale)
    if bad.size:
        where = f" in member {bad[0]}" if np.ndim(err) else ""
        raise ShapeError(f"{what} {np.ravel(err)[bad[0]]:.3e}{where}")
    return True


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class PlanarGrid:
    x_nodes: np.ndarray
    x_weights: np.ndarray
    y_nodes: np.ndarray
    y_weights: np.ndarray

    @property
    def X(self):
        return self.x_nodes[:, None]

    @property
    def Y(self):
        return self.y_nodes[None, :]

    def integrate(self, values):
        """Quadrature over the trailing (x, y) axes: a float, or one per member."""
        w = self.x_weights[:, None] * self.y_weights[None, :]
        total = np.sum(w * np.asarray(values), axis=(-2, -1))
        return total if total.ndim else float(total)

    def norm_sq(self, values):
        return self.integrate(np.asarray(values) ** 2)


def _check_rectangle(h, L):
    if not (0.0 < h < math.inf and 0.0 < L < math.inf):
        raise ParameterError(f"rectangle [0, {h}] x [0, {L}] needs finite h, L > 0")


def planar_grid(h, L, n_x=24, n_y=64):
    """Gauss-Legendre rule on [0, h] x [0, L]; h and L finite and positive."""
    _check_rectangle(h, L)
    xn, xw = _gauss(0.0, h, n_x)
    yn, yw = _gauss(0.0, L, n_y)
    return PlanarGrid(xn, xw, yn, yw)


def _check_grid(field, h, L):
    """The Gauss rule of the basic and periodic checks of field on [0, h] x [0, L].

    When u and v are PlanarSeries whose rows all have rate 0, with at most
    n coefficients in x, every check integrand is a product of two partials,
    a polynomial of degree <= 2 n - 2 in x, which n Gauss nodes integrate
    exactly: the cubic trial fields get 4.  Any other field gets the n_x of
    _CHECK_NODES.  The y rule is _CHECK_NODES's either way.
    """
    n_x, n_y = _CHECK_NODES
    parts = (field.u, field.v)
    if all(isinstance(c, PlanarSeries) and not np.any(c.rate) for c in parts):
        n_x = max(c.coef.shape[-1] for c in parts)
    return planar_grid(h, L, n_x, n_y)


# ---------------------------------------------------------------------------
# modified gradients


def planar_partials(field, x, y):
    """u and the first partials of (u, v) at (x, y), each component evaluated once."""
    return {"u": field.u(x, y), "ux": field.u(x, y, 1, 0), "uy": field.u(x, y, 0, 1),
            "vx": field.v(x, y, 1, 0), "vy": field.v(x, y, 0, 1)}


def modified_gradient(d, alpha):
    """G_alpha entries {xx, xy, yx, yy} = [[u_x, u_y], [v_x, v_y + alpha u]].

    alpha is one value, or one per member of a stacked field.
    """
    alpha = np.reshape(alpha, np.shape(alpha) + (1, 1))
    return {"xx": d["ux"], "xy": d["uy"], "yx": d["vx"], "yy": d["vy"] + alpha * d["u"]}


def starred_gradient(d, v):
    """G_* entries: [[u_x, u_y - v], [v_x, v_y + u]]."""
    return {"xx": d["ux"], "xy": d["uy"] - v, "yx": d["vx"], "yy": d["vy"] + d["u"]}


def gradient_norms(g, grid):
    """(||G||^2, ||sym G||^2) from the entry dict by quadrature, per member."""
    g_sq = grid.integrate(g["xx"] ** 2 + g["xy"] ** 2 + g["yx"] ** 2 + g["yy"] ** 2)
    off = 0.5 * (g["xy"] + g["yx"])
    e_sq = grid.integrate(g["xx"] ** 2 + 2.0 * off**2 + g["yy"] ** 2)
    return g_sq, e_sq


# ---------------------------------------------------------------------------
# the zero-horizontal-edge inequality


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float

    @property
    def margin(self):
        return self.rhs - self.lhs

    @property
    def holds(self):
        return self.lhs <= self.rhs * (1.0 + 1e-12) + 1e-300


def _reports(lhs, rhs):
    """One InequalityReport of floats per member; a single one for a single field."""
    reps = [InequalityReport(*row)
            for row in zip(np.ravel(lhs).tolist(), np.ravel(rhs).tolist())]
    return reps if np.ndim(lhs) else reps[0]


def check_basic_inequality(field, alpha, h, L):
    """Both forms of the clamped-horizontal-edge bound on ||G_alpha||^2.

    Returns (product-form report, split-form report): the rhs are
    100 ||e|| (||u||/h + ||e||) and the rounded-up 99 ||e||^2 + (57/h) ||u|| ||e||.
    A stacked field (alpha one value or one per member) gives a list of
    reports per form, one per member.
    """
    if not np.all(np.abs(alpha) <= 1.0):
        raise ParameterError(f"alpha = {alpha} outside [-1, 1]")
    if not 0.0 < h < 1.0:
        raise ParameterError(f"h = {h} outside (0, 1)")
    if field.bc_tag != "zero_horizontal":
        raise ParameterError("basic inequality requires u = 0 on the horizontal edges")
    grid = _check_grid(field, h, L)
    verify_planar_bc(field, h, L)
    d = planar_partials(field, grid.X, grid.Y)
    g_sq, e_sq = gradient_norms(modified_gradient(d, alpha), grid)
    e = np.sqrt(e_sq)
    u_norm = np.sqrt(grid.norm_sq(d["u"]))
    return (_reports(g_sq, 100.0 * e * (u_norm / h + e)),
            _reports(g_sq, 99.0 * e_sq + 57.0 / h * u_norm * e))


def random_zero_horizontal(rng, h, L, shape=()):
    """Seeded random field vanishing on the horizontal edges.

    u is a sine series in y with random x-polynomial coefficients; v is an
    unconstrained trig series of the same type; 6 cubic-in-x terms each.
    ``shape=(k,)`` gives a stack of k fields: member by member, bit for bit,
    the fields of k successive single draws.
    """
    cu, cv = np.empty((2, *shape, 6, 4))
    k_u, k_v, coin = np.empty((3, *shape, 6))
    for t in np.ndindex(*shape, 6):
        cu[t] = rng.uniform(-1.0, 1.0, 4)
        cv[t] = rng.uniform(-1.0, 1.0, 4)
        k_u[t] = rng.integers(1, 9)
        k_v[t] = rng.integers(0, 9)
        coin[t] = rng.random()
    return PlanarField(PlanarSeries(cu, math.pi * k_u / L, np.full(k_u.shape, "sin")),
                       PlanarSeries(cv, math.pi * k_v / L, np.where(coin < 0.5, "cos", "sin")),
                       bc_tag="zero_horizontal")


def _trial_scan(trials, seed, draw, reports):
    """(violated forms, min margin) over seeded trials.

    draw(rng, count) stacks the next count random fields in draw order, and
    reports(stack, alphas) gives, for each form, the InequalityReports of all
    its members; trial t takes alpha = TRIAL_ALPHAS[t % 5].  Up to
    _TRIAL_CHUNK fields go in one stack, which bounds the scan's working
    memory.
    """
    # a scan of no fields would report zero violations without testing anything
    if trials < 1:
        raise ParameterError(f"need at least 1 trial, got trials={trials}")
    rng = np.random.default_rng(seed)
    violations, min_margin = 0, math.inf
    for start in range(0, trials, _TRIAL_CHUNK):
        t = np.arange(start, min(start + _TRIAL_CHUNK, trials))
        alphas = np.take(TRIAL_ALPHAS, t, mode="wrap")
        for form in reports(draw(rng, t.size), alphas):
            for rep in form:
                violations += not rep.holds
                min_margin = min(min_margin, rep.margin)
    return violations, min_margin


def basic_inequality_trials(h, L, trials=200, seed=1234):
    """Randomized scan of both basic forms; returns (violated forms, min margin)."""
    _check_rectangle(h, L)      # before the first draw divides by L
    return _trial_scan(
        trials, seed,
        lambda rng, count: random_zero_horizontal(rng, h, L, (count,)),
        lambda field, alphas: check_basic_inequality(field, alphas, h, L))


# ---------------------------------------------------------------------------
# the harmonic-function lemma


def phi_factor(tau):
    """Phi(tau) = tau^4 / (sinh^2 tau - tau^2); Phi(0) = 3, decreasing."""
    tau = float(tau)
    if abs(tau) < 1e-2:
        t2 = tau * tau
        # sinh^2 - tau^2 = (tau^4/3)(1 + 2 t2/15 + t2^2/105 + ...)
        return 3.0 / (1.0 + 2.0 * t2 / 15.0 + t2**2 / 105.0)
    return tau**4 / (math.sinh(tau) ** 2 - tau**2)


def extremal_harmonic(h, L):
    """The sharpness witness w = cosh(pi (x - h/2)/L) sin(pi y/L)."""
    a = math.pi / L
    amp = [[0.5 * math.exp(-a * h / 2.0)], [0.5 * math.exp(a * h / 2.0)]]
    return PlanarSeries(amp, [a, a], ["sin"] * 2, rate=[a, -a])


def random_harmonic(rng, h, L, shape=()):
    """Random harmonic function vanishing on the horizontal edges (modes 1..8),
    stacked by ``shape`` as in random_zero_horizontal."""
    a = math.pi * np.arange(1, 9) / L
    # keep the growing exponential O(1) on [0, h]
    scale = np.column_stack([[math.exp(-a_ * h) for a_ in a], np.ones(8)])
    amp = np.empty((*shape, 8, 2))
    for t in np.ndindex(*shape, 8):
        amp[t] = rng.uniform(-1.0, 1.0, 2)
    rate = np.column_stack([a, -a]).ravel()
    return PlanarSeries((amp * scale).reshape(*shape, 16, 1),
                        np.broadcast_to(np.abs(rate), (*shape, 16)),
                        np.full((*shape, 16), "sin"), rate=rate)


@dataclass(frozen=True)
class HarmonicLemmaReport:
    equality_error: float
    hi_violations: int
    hi_min_margin: float


def harmonic_lemma_check(h, L, trials=20, seed=1234):
    """Sharp-inequality check on the extremal plus randomized spot checks.

    The extremal achieves ||w_y||^2 - ||w_x||^2 = (2 sqrt(Phi(pi h/L))/h)
    ||w|| ||w_x|| to relative 1e-8; random harmonic sine series must respect
    ||w_y||^2 <= (2 sqrt(3)/h) ||w|| ||w_x|| + ||w_x||^2, one
    ``InequalityReport`` per seeded trial; trials < 1 is a ParameterError.
    tau = pi h / L is admitted in [1e-8, 10], where the 24-node rule in x
    resolves the extremal's equality (error 2.5e-9 at tau = 1e-8 and 1.6e-12
    at 10; 6e-8 at 1e-9 and 2e-8 at 20).  Beyond it the extremal's w_x
    cancels to 0 or its exponentials overflow.
    """
    if not 0.0 < h < 1.0:
        raise ParameterError(f"h = {h} outside (0, 1)")
    grid = planar_grid(h, L)
    if not 1e-8 <= math.pi * h / L <= 10.0:
        raise ParameterError(f"tau = pi h / L = {math.pi * h / L:.3g} outside [1e-8, 10]")

    def norms(w):
        """(||w||, ||w_x||, ||w_y||): floats, or lists of one per member."""
        return tuple(np.sqrt(grid.norm_sq(w(grid.X, grid.Y, dx, dy))).tolist()
                     for dx, dy in ((0, 0), (1, 0), (0, 1)))

    def reports(stack, alphas):
        return ([InequalityReport(lhs=ny**2, rhs=2.0 * math.sqrt(3.0) / h * n0 * nx + nx**2)
                 for n0, nx, ny in zip(*norms(stack))],)

    violations, min_margin = _trial_scan(
        trials, seed,
        lambda rng, count: random_harmonic(rng, h, L, (count,)),
        reports)

    n0, nx, ny = norms(extremal_harmonic(h, L))
    lhs = ny**2 - nx**2
    rhs = 2.0 * math.sqrt(phi_factor(math.pi * h / L)) / h * n0 * nx
    equality_error = abs(lhs - rhs) / rhs
    return HarmonicLemmaReport(equality_error=equality_error,
                               hi_violations=violations, hi_min_margin=min_margin)


# ---------------------------------------------------------------------------
# the Laplace projection


@dataclass(frozen=True)
class HarmonicSolution:
    """Discrete solution w of the Dirichlet Laplace problem with data u.

    ``u`` is the field on the whole node grid, of which w keeps the boundary.
    """

    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    residual: float
    u: np.ndarray


def _sine_matrix(n):
    """The n x n type-I sine matrix sin(pi j k / (n+1)), j, k = 1..n.

    Its square is (n+1)/2 times the identity.  The angle index j k is
    reduced mod 2 (n+1) before the table lookup, so every entry is correct to
    rounding also where pi j k / (n+1) is large.
    """
    k = np.arange(1, n + 1)
    table = np.sin(np.pi * np.arange(2 * n + 2) / (n + 1))
    return table[np.outer(k, k) % (2 * n + 2)]


def harmonic_projection(field, h, L, n_x=48, n_y=96):
    """Solve Delta w = 0 on [0,h]x[0,L] with w = u on the boundary.

    Second-order 5-point stencil, solved directly: the type-I sine transform
    diagonalizes the Dirichlet difference Laplacian (Buzbee, Golub & Nielson
    1970), applied as dense sine-matrix products, which at the default
    48 x 96 cells cost no more than an FFT-based DST-I.  The interior
    Laplacian residual must come out below 1e-10 ||w||_inf; a NaN one fails.
    """
    _check_rectangle(h, L)
    if n_x < 2 or n_y < 2:
        raise ParameterError(f"need n_x, n_y >= 2 cells, got n_x={n_x}, n_y={n_y}")
    x = np.linspace(0.0, h, n_x + 1)
    y = np.linspace(0.0, L, n_y + 1)
    hx, hy = x[1] - x[0], y[1] - y[0]
    u = np.array(np.broadcast_to(field.u(x[:, None], y[None, :]), (n_x + 1, n_y + 1)), dtype=float)
    w = u.copy()

    cx, cy = 1.0 / hx**2, 1.0 / hy**2
    b = np.zeros((n_x - 1, n_y - 1))
    b[0, :] += cx * w[0, 1:-1]
    b[-1, :] += cx * w[-1, 1:-1]
    b[:, 0] += cy * w[1:-1, 0]
    b[:, -1] += cy * w[1:-1, -1]
    eig = (2.0 * cx * (1.0 - np.cos(np.pi * np.arange(1, n_x) / n_x))[:, None]
           + 2.0 * cy * (1.0 - np.cos(np.pi * np.arange(1, n_y) / n_y))[None, :])
    s_x, s_y = _sine_matrix(n_x - 1), _sine_matrix(n_y - 1)
    w[1:-1, 1:-1] = s_x @ ((s_x @ b @ s_y) / eig) @ s_y * (4.0 / (n_x * n_y))

    lap = ((w[2:, 1:-1] - 2.0 * w[1:-1, 1:-1] + w[:-2, 1:-1]) / hx**2
           + (w[1:-1, 2:] - 2.0 * w[1:-1, 1:-1] + w[1:-1, :-2]) / hy**2)
    residual = float(np.max(np.abs(lap)))
    scale = float(np.max(np.abs(w)))
    if not residual <= 1e-10 * max(scale, 1e-300) * max(1.0 / hx**2, 1.0 / hy**2) * 4.0:
        raise SolverError(f"discrete Laplacian residual {residual:.3e} too large")
    return HarmonicSolution(w=w, x=x, y=y, residual=residual, u=u)


@dataclass(frozen=True)
class ProjectionReport:
    grad_diff: float
    grad_bound: float
    value_diff: float
    value_bound: float

    @property
    def holds(self):
        return self.grad_diff <= self.grad_bound and self.value_diff <= self.value_bound


def projection_estimates(field, alpha, h, L, allowance=0.05):
    """Both Helmholtz-projection bounds with a grid-error allowance.

    ||grad u - grad w|| <= (sqrt(2) + 1/pi) ||e_alpha|| and
    ||u - w|| <= (h/pi)(sqrt(2) + 1/pi) ||e_alpha||.
    """
    if field.bc_tag != "zero_horizontal":
        raise ParameterError("projection estimates require u = 0 on the horizontal edges")
    sol = harmonic_projection(field, h, L)
    x, y, w, u = sol.x, sol.y, sol.w, sol.u
    hx, hy = x[1] - x[0], y[1] - y[0]

    # trapezoid weights for the node grid
    wx, wy = np.full(x.size, hx), np.full(y.size, hy)
    wx[[0, -1]] = hx / 2.0
    wy[[0, -1]] = hy / 2.0
    value_diff = math.sqrt(float(np.sum(wx[:, None] * wy[None, :] * (u - w) ** 2)))

    # gradients at cell centers (second-order for both u and w)
    wc_x = 0.5 * ((w[1:, 1:] - w[:-1, 1:]) + (w[1:, :-1] - w[:-1, :-1])) / hx
    wc_y = 0.5 * ((w[1:, 1:] - w[1:, :-1]) + (w[:-1, 1:] - w[:-1, :-1])) / hy
    Xc, Yc = (x[:-1] + x[1:])[:, None] / 2.0, (y[:-1] + y[1:])[None, :] / 2.0
    ux = np.broadcast_to(field.u(Xc, Yc, 1, 0), wc_x.shape)
    uy = np.broadcast_to(field.u(Xc, Yc, 0, 1), wc_y.shape)
    grad_diff = math.sqrt(float(np.sum(hx * hy * ((ux - wc_x) ** 2 + (uy - wc_y) ** 2))))

    grid = planar_grid(h, L)
    g = modified_gradient(planar_partials(field, grid.X, grid.Y), alpha)
    _, e_sq = gradient_norms(g, grid)
    factor = math.sqrt(2.0) + 1.0 / math.pi
    bound = factor * math.sqrt(e_sq) * (1.0 + allowance)
    return ProjectionReport(grad_diff=grad_diff, grad_bound=bound,
                            value_diff=value_diff, value_bound=h / math.pi * bound)


# ---------------------------------------------------------------------------
# periodic variants


def random_periodic(rng, h, shape=()):
    """Seeded random field with period 2 pi in y: 6 cubic-in-x terms per
    component, stacked by ``shape`` as in random_zero_horizontal."""
    coef = np.empty((*shape, 2, 6, 4))
    k, coin = np.empty((2, *shape, 2, 6))
    for t in np.ndindex(*shape, 2, 6):
        coef[t] = rng.uniform(-1.0, 1.0, 4)
        k[t] = rng.integers(0, 9)
        coin[t] = rng.random()
    kind = np.where(coin < 0.5, "cos", "sin")
    u, v = (PlanarSeries(coef[..., c, :, :], k[..., c, :], kind[..., c, :]) for c in range(2))
    return PlanarField(u, v, bc_tag="periodic_y")


def check_periodic_inequalities(field, h, alpha=1.0):
    """Both periodic-in-y bounds with the frozen constants C0 and sigma.

    Returns (alpha-form report, starred-form report); the starred form is
    ||G_*||^2 <= C0 (||e_*||^2 + ||e_*|| ||u||/h + ||v||^2).  At the frozen
    C0 = 2.0 both forms fail on a witness from the span of random_periodic
    (test_periodic_constant_violated_in_trial_span); the random scan misses it.
    A stacked field (alpha one value or one per member) gives a list of
    reports per form, one per member.
    """
    if not 0.0 < h < PERIODIC_SIGMA:
        raise ParameterError(f"h = {h} outside (0, sigma = {PERIODIC_SIGMA})")
    if field.bc_tag != "periodic_y":
        raise ParameterError("periodic inequalities require a periodic-in-y field")
    grid = _check_grid(field, h, 2.0 * np.pi)
    verify_planar_bc(field, h, 2.0 * np.pi)
    d = planar_partials(field, grid.X, grid.Y)
    v = field.v(grid.X, grid.Y)
    u_norm = np.sqrt(grid.norm_sq(d["u"]))
    v_norm_sq = grid.norm_sq(v)

    g_sq, e_sq = gradient_norms(modified_gradient(d, alpha), grid)
    e = np.sqrt(e_sq)
    gs_sq, es_sq = gradient_norms(starred_gradient(d, v), grid)
    es = np.sqrt(es_sq)
    return (_reports(g_sq, PERIODIC_C0 * e * (u_norm / h + e)),
            _reports(gs_sq, PERIODIC_C0 * (es_sq + es * u_norm / h + v_norm_sq)))


def periodic_inequality_trials(h, trials=200, seed=1234):
    """Randomized scan of both periodic bounds; returns (violated forms, min margin)."""
    return _trial_scan(
        trials, seed,
        lambda rng, count: random_periodic(rng, h, (count,)),
        lambda field, alphas: check_periodic_inequalities(field, h, alpha=alphas))
