"""Korn-constant and gradient-component scaling verification.

Fourier reduction: on the cylinder every quadratic form appearing in the Korn
quotient ||e(u)||^2 / ||grad u||^2 decouples over modes

    u_r = f_r(r) sin(m_hat z) cos(n theta),
    u_t = f_t(r) sin(m_hat z) sin(n theta),
    u_z = f_z(r) cos(m_hat z) cos(n theta),

so the infimum is a minimum over (m, n) of small radial generalized
eigenproblems.  The radial profiles are discretized by Chebyshev-Gauss-Lobatto
collocation (spectral differentiation + Clenshaw-Curtis weights).  The tests
keep a uniform first-order nodal grid as an oracle for it.  A grid's mode
operators are one affine table in (n, m_hat) that the grid builds once; a scan
solves its modes as stacks of pencils rows(ops) -> (C_num, C_den) of
``_mode_operators``, each solve with BLAS on one thread.  Every scan gives the
extremum over the whole mode window: each mode it does not solve is excluded by
a closed-form bound, for the Korn scan the lower bound of ``_korn_bound``, the
model ``_korn_model`` times a factor set by the mode's thinness, and for the
component scans the upper bounds of ``_component_bound`` that follow from it,
thzzth's also capped by the proven ``_thzzth_cap``.  One function,
``_guarded_scan``, runs the screen and its resolution guard: on 8 radial nodes,
with its mode solved once at the requested N, and again at N when the two grids
disagree there or a competitor comes too close.

The modes are m >= 1 (``ShellGeometry.axial_wavenumber``) and n >= 0.  At m = 0
only u_z = f_z(r) cos(n theta) is left, whose gradient is zr and zt alone: its
Korn quotient is exactly 1/2, above K <= 0.125 (h <= 0.999, L = pi); its
ththzz and rthr quotients are 0, and its urrzzr and thzzth quotients at most
2, which m >= 1 reaches (thzzth at h = 0.5, L = 0.1: 2 - 2.2e-16).
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from cylshell.blas import single_thread_blas
from cylshell.errors import ParameterError, SolverError
from cylshell.fields import (COMPONENT_GROUPS, GRAD_KEYS, cylindrical_gradient, group_keys,
                             norm_terms)

# predicted absolute growth exponents of sup component^2 / ||e||^2
COMPONENT_EXPONENTS = {"ththzz": 0.0, "rthr": -1.5, "urrzzr": -1.0, "thzzth": -0.5}


def _cheb_lobatto(N):
    """Nodes, differentiation matrix, Clenshaw-Curtis weights on [-1, 1]."""
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.ones(N + 1)
    c[0] = c[-1] = 2.0
    c = c * (-1.0) ** j
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D = D - np.diag(D.sum(axis=1))
    # Clenshaw-Curtis weights
    w = np.zeros(N + 1)
    theta = np.pi * j / N
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N**2 - 1)
        for k in range(1, N // 2):
            v = v - 2.0 * np.cos(2.0 * k * theta[1:-1]) / (4.0 * k**2 - 1)
        v = v - np.cos(N * theta[1:-1]) / (N**2 - 1)
    else:
        w[0] = w[N] = 1.0 / N**2
        for k in range(1, (N - 1) // 2 + 1):
            v = v - 2.0 * np.cos(2.0 * k * theta[1:-1]) / (4.0 * k**2 - 1)
    w[1:-1] = 2.0 * v / N
    # reverse so nodes ascend; the reversal is a symmetric permutation of D
    return x[::-1], D[::-1, ::-1], w[::-1]


@dataclass(frozen=True)
class RadialGrid:
    """Collocation grid on I_h: nodes, first-derivative matrix, weights, and
    the operator ``table`` of ``_operator_table``, built on first use."""

    nodes: np.ndarray
    D: np.ndarray
    weights: np.ndarray

    @property
    def N(self):
        return self.nodes.size

    @functools.cached_property
    def table(self):
        return _operator_table(self)


# most radial nodes a grid admits: the tracemalloc peak of korn_constant at
# h = 1e-2, m_max = n_max = 3 is 74 MiB at N = 256 and 296 MiB (5.8 s) at
# N = 512, growing as N^2
MAX_RADIAL_N = 512


def radial_grid(geometry, N=32):
    """Chebyshev-Gauss-Lobatto grid with 3 <= N <= MAX_RADIAL_N nodes on I_h."""
    if not 3 <= N <= MAX_RADIAL_N:
        raise ParameterError(f"need 3 to {MAX_RADIAL_N} radial nodes, got N={N}")
    a, b = geometry.I_h
    x, D, w = _cheb_lobatto(N - 1)
    scale = (b - a) / 2.0
    nodes = a + (x + 1.0) * scale
    return RadialGrid(nodes=nodes, D=D / scale, weights=w * scale)


@dataclass(frozen=True)
class QuadraticFormPair:
    """Numerator/denominator forms v -> ||C_num v||^2, ||C_den v||^2.

    Kept as weighted row stacks, never squared into matrices (see
    ``_solve_stack`` for why).
    """

    C_num: np.ndarray
    C_den: np.ndarray

    def quotient(self, v):
        y_num = self.C_num @ v
        y_den = self.C_den @ v
        return float(y_num @ y_num) / float(y_den @ y_den)


# keys of the operator table, "ur" being u_r; n enters only "rt", "tt", "zt"
# and m_hat only "rz", "tz", "zz", so Tn and Tm hold only those
_TABLE_KEYS = GRAD_KEYS + ("ur",)
_N_KEYS, _M_KEYS = slice(1, 9, 3), slice(2, 9, 3)


def _operator_table(grid):
    """The grid's mode operators as an affine table (T0, Tn, Tm): T0 + n Tn + m_hat Tm.

    The mode (m, n) has 12 partials of (u_r, u_theta, u_z), operators on the
    dofs (f_r, f_t, f_z): the value, d/dr through D, d/dtheta as (-n, +n, -n)
    and d/dz as (+m_hat, +m_hat, -m_hat) times the value.  The operators are
    ``fields.cylindrical_gradient`` of them, linear in the partials, so each
    table is the gradient of its own part; every entry of a mode's operator
    comes from exactly one table, the same product as when built alone.
    """
    N = grid.N
    I, Z = np.eye(N), np.zeros((N, N))
    table = []
    for one, n, m_hat, keys in ((1, 0, 0, _TABLE_KEYS), (0, 1, 0, _TABLE_KEYS[_N_KEYS]),
                                (0, 0, 1, _TABLE_KEYS[_M_KEYS])):
        p = {}
        for j, (c, d_th, d_z) in enumerate((("ur", -n, m_hat), ("ut", n, m_hat),
                                            ("uz", -n, -m_hat))):
            F, DF = (np.hstack([A if k == j else Z for k in range(3)]) for A in (I, grid.D))
            p.update({c: one * F, c + "_r": one * DF, c + "_t": d_th * F, c + "_z": d_z * F})
        ops = {**cylindrical_gradient(p, grid.nodes[:, None]), "ur": p["ur"]}
        table.append(np.array([ops[key] for key in keys]))
    return table


def _mode_operators(grid, modes, geometry):
    """The weighted operators of the modes [(m, n), ...], m >= 1, stacked, by key.

    Each operator is sqrt(W) (T0 + n Tn + m_hat Tm), weighted before it is
    symmetrized or combined.  W is the radial quadrature weight times r times
    the angular-axial mode normalization (pi or 2 pi at n = 0, times L / 2),
    so a sum of squared rows integrates over the shell.
    """
    ms, ns = np.array(modes, dtype=float).T
    m_hat = geometry.axial_wavenumber(ms)
    ang_z = np.where(ns >= 1, math.pi, 2.0 * math.pi) * (geometry.L / 2.0)
    sqw = np.sqrt(grid.weights * grid.nodes * ang_z[:, None])
    T0, Tn, Tm = grid.table
    ops = np.repeat(T0[None], len(modes), axis=0)    # updated in place: the largest array
    ops[:, _N_KEYS] += ns[:, None, None, None] * Tn
    ops[:, _M_KEYS] += m_hat[:, None, None, None] * Tm
    ops *= sqw[:, None, :, None]
    return dict(zip(_TABLE_KEYS, np.moveaxis(ops, 1, 0)))


def _form_rows(kind, ops):
    """Row stack C of the stacked ops, ||C v||^2 the norm ``kind`` (``fields.norm_terms``)^2."""
    return np.concatenate([math.sqrt(w) * t for w, t in norm_terms(kind, ops)], axis=-2)


def assemble_mode_forms(m, n, geometry, grid, numerator="strain", denominator="grad"):
    """Quadratic-form pair for the Rayleigh quotient numerator/denominator.

    The forms take the radii from the grid, so its end nodes must be
    geometry's I_h to rounding (4 eps on radii near 1); a grid on another
    shell is a ParameterError.
    """
    ends = (float(grid.nodes[0]), float(grid.nodes[-1]))
    if not max(abs(e - r) for e, r in zip(ends, geometry.I_h)) <= 4.0 * np.finfo(float).eps:
        raise ParameterError(f"radial grid spans [{ends[0]!r}, {ends[1]!r}], not the "
                             f"I_h = {geometry.I_h!r} of h = {geometry.h!r}")
    ops = _mode_operators(grid, [(m, n)], geometry)
    return QuadraticFormPair(*(_form_rows(kind, ops)[0] for kind in (numerator, denominator)))


def _svd(B):
    """Singular values and right vectors of a stack; when the stacked gesdd
    fails, each matrix alone, and one that still fails once more with gesvd,
    unchecked: a NaN or inf fails it too, or gives NaNs the residual gate rejects."""
    try:
        return np.linalg.svd(B, full_matrices=False)[1:]
    except np.linalg.LinAlgError:
        if len(B) > 1:
            s, Vt = zip(*(_svd(b[None]) for b in B))
            return np.concatenate(s), np.concatenate(Vt)
        from scipy.linalg import svd      # only here: numpy cannot call gesvd
        _, s, Vt = svd(B[0], full_matrices=False, lapack_driver="gesvd", check_finite=False)
        return s[None], Vt[None]


@single_thread_blas()
def _solve_stack(C_num, C_den, sign):
    """(quotient, v) of one extreme eigenpair per pencil, by a one-sided QR/SVD reduction.

    ``sign`` is +1 for the least quotient and -1 for the greatest.
    C_num and C_den are stacks (pencils, rows, dofs) of weighted row stacks,
    never squared into matrices.  C_den = Q R, and the extreme quotients are
    the squared extreme singular values of B = C_num R^{-1}, formed by a
    linear solve with R^T (numpy has no triangular solver).  This is
    backward stable: the tiny Korn quotients at small thickness come out with
    relative accuracy ~ eps * cond(B), where cond(B)^2 is the quotient spread
    itself, whereas any formulation squaring the operators hits an absolute
    noise floor eps * ||C||^2 that can exceed the answer by orders of
    magnitude.  QR, solves and SVD are one stacked LAPACK call each, which
    gives every pencil the bits of a call of its own.  The residual
    ||B^T B y - lam y|| is gated as a backward error, at most 1e-12 s_max^2
    for the largest singular value s_max of B; it and a LAPACK failure that
    ``_svd`` cannot recover are ``SolverError``s.
    """
    try:
        R = np.linalg.qr(C_den, mode="r")
        dR = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
        if not np.all(dR > 1e-14 * dR.max(axis=-1, keepdims=True)):
            raise SolverError("denominator form numerically rank-deficient")
        B = np.swapaxes(np.linalg.solve(np.swapaxes(R, -1, -2), np.swapaxes(C_num, -1, -2)),
                        -1, -2)
        s, Vt = _svd(B)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"pencil reduction failed: {exc}") from exc
    pick = -1 if sign > 0 else 0             # singular values sort descending
    y, lam = Vt[:, pick], s[:, pick] ** 2
    res = np.linalg.norm((np.swapaxes(B, -1, -2) @ (B @ y[..., None]))[..., 0]
                         - lam[:, None] * y, axis=-1)
    bad = np.flatnonzero(~(res <= 1e-12 * s[:, 0] ** 2))     # NaN fails
    if bad.size:
        raise SolverError(f"eigen residual {res[bad[0]]:.3e} exceeds "
                          f"1e-12 s_max^2 = {1e-12 * s[bad[0], 0] ** 2:.3e}")
    V = np.linalg.solve(R, y[..., None])[..., 0]
    return [(QuadraticFormPair(a, b).quotient(v), v) for a, b, v in zip(C_num, C_den, V)]


def min_rayleigh(pair):
    """Smallest quotient ||C_num v||^2 / ||C_den v||^2 with its minimizer v."""
    return _solve_stack(pair.C_num[None], pair.C_den[None], 1)[0]


def max_rayleigh(pair):
    """Largest quotient ||C_num v||^2 / ||C_den v||^2 with its maximizer v."""
    return _solve_stack(pair.C_num[None], pair.C_den[None], -1)[0]


# radial nodes of the coarse scans; at the acceptance sweeps h the coarse
# scans end on the mode of the scans at N = 32, within 7.5e-8 of its value
_COARSE_N = 8
# coarse-grid modes per stacked solve; the tracemalloc peak of korn_constant
# at h = 1e-4 is 1.2 MiB with 16 and 1.7 MiB with 32
_STACK = 16
# resolution guard of the coarse scans: the most the N and _COARSE_N
# quotients of the scan's mode may differ, and the least its nearest
# competitor must fall short by, both relative to the mode's quotient
_GAP_TOL = 1e-6
_MARGIN_TOL = 1e-5
# relative slack of the screen's bounds: a solved mode may pass its bound by
# this much (ththzz reaches its bound 1 as 1 + O(1e-16)), a value this close
# to the window's extreme bound ends the screen, and keys this close to the
# best one are ties (thzzth's n = 0 column equals 2 to rounding on short or
# thick shells)
_BOUND_SLACK = 1e-12
# least m_hat h = pi h / L of the mode m = 1 a scan admits: at 1e-10 the Korn
# and rthr values on N and 2N nodes (N = 8, 16, 32; h = 0.5, 1e-2, 1e-4) agree
# to 2.2e-7 relative, at 3e-11 only to 3.6e-6, and near 3e-14 the denominator
# form is numerically rank-deficient
_MHAT_H_MIN = 1e-10
# urrzzr and thzzth need a larger one: at pi h / L = 1e-5 their values on 32
# and 64 nodes agree to 1.5e-7 relative (h = 0.5, 1e-2, 1e-4; 4.7e-7 at
# h = 0.9), at 1e-6 only to 1.2e-3 (h = 0.5) and 7e-7 (h = 1e-2)
_FORM_MHAT_H_MIN = {"urrzzr": 1e-5, "thzzth": 1e-5}
# lower-bound factors of the Korn screen: every mode's quotient is at least
# its factor times its ``_korn_model``, the factor depending on the mode's
# thinness t = h sqrt(n^2 + m_hat^2), h times its wavenumber:
# _THIN_BOUND_FACTOR where t <= _THIN_T and n >= 1, _THIN_N0_BOUND_FACTOR
# where t <= _THIN_T and n = 0, _BOUND_FACTOR elsewhere.  Exhaustive 8-node
# windows over h in [1e-6, 0.99] and L in [0.01, 1000] gave a worst
# quotient/model ratio of 0.946 where t <= 1/2 and n >= 1 (n = 1; 0.967 at
# n >= 2), 0.667 where t <= 1/2 and n = 0 (h = 1e-3, L = 100, m = 45), 0.894
# where 1/2 < t <= 1, 0.673 where 1 < t <= 2 and 0.188 where t > 2, every
# ratio below 0.25 from a thick or short shell: (h, L) = (0.99, 0.3),
# (0.5, 0.3), (0.1, 0.1), (0.01, 0.01).  Each factor keeps 20-25% headroom
# below the worst ratio of its region; a factor may rise only with a sharper
# model.
_THIN_T = 0.5
_THIN_BOUND_FACTOR = 0.75
_THIN_N0_BOUND_FACTOR = 0.5
_BOUND_FACTOR = 0.15
# window modes per block of the screen's bound, so the bound's temporaries
# never span the window (90,300 modes at h = 1e-4); the screen keeps only the
# bound's key of each window mode, 8 bytes a mode
_BOUND_BLOCK = 10_000


@dataclass(frozen=True)
class ScanResult:
    """Extremum of a mode scan; ``value`` is one solve at the requested radial N.

    ``evaluations`` counts the per-mode solves of ``_guarded_scan`` on either
    grid.  ``resolution_gap`` is |K_N - K_coarse| / |K_N| at the coarse
    screen's mode (None when N <= _COARSE_N, where the grids are one), and
    ``walked_at_N`` says that the guard failed and the screen ran again at N.
    ``screened_out`` counts the window's modes the final screen excluded by
    the bound without a solve, and ``bound_ratio`` is the extreme
    quotient/model ratio over every mode the scan solved, on either grid: the
    least for ``korn_constant``, the greatest for ``component_bound``.
    """

    value: float
    m: int
    n: int
    evaluations: int
    on_boundary: bool
    resolution_gap: float | None
    walked_at_N: bool
    screened_out: int
    bound_ratio: float


def _guarded_scan(quotients, bound, sign, N, m_max, n_max):
    """Extremum over the whole mode window by a bound-screened search on
    min(N, _COARSE_N) radial nodes, its mode solved once at N behind a guard.

    The screen minimizes the key sign * quotient: ``sign`` is +1 for the
    minimum, -1 for the maximum.  ``bound(m, n)`` gives each mode's bound of
    the quotient, lower for a minimum and upper for a maximum, and the model
    it scales, broadcast.  Each screen evaluates it once over the window,
    _BOUND_BLOCK modes at a time, into one key sign * bound per mode, freed
    when the screen returns.  The screen solves the model's extreme mode
    (the smallest (m, n) of equal models), then, a stack at a time and in the
    order of the bound's key (equal keys in (m, n) order), the modes whose
    bound's key is within _MARGIN_TOL relative of the best key so far, and
    stops at the first mode whose is not: every unsolved mode falls short of
    the extremum by more than _MARGIN_TOL relative, and the runner-up is the
    nearest competitor.  Once the best value reaches the window's extreme
    bound to _BOUND_SLACK relative no mode can beat it, and the screen stops
    with no competitor.  Keys within _BOUND_SLACK relative of the best are
    ties, and ties go to the smallest (m, n).

    ``quotients(n_r, modes)`` are served from one cache keyed by
    (n_r, m, n), new ones solved _STACK at a time on the coarse grid and one
    at a time at N, where a solve is LAPACK time (a stack of 25 at N = 32 was
    at most 1.2x faster for 10 MB more).  A solved mode past its bound by
    more than _BOUND_SLACK relative is a failed bound and a ``SolverError``.
    The coarse answer stands when the grids agree at its mode to _GAP_TOL
    and its competitor falls short by more than _MARGIN_TOL, both relative;
    otherwise (thick or short shells, where 8 nodes do not resolve the
    profile) the screen runs again at N.
    """
    cache, worst = {}, math.inf
    coarse_N = min(N, _COARSE_N)
    stacks = {N: 1, coarse_N: _STACK}     # the coarse grid's when the two are one
    size = m_max * (n_max + 1)

    def solve(n_r, modes):
        nonlocal worst
        todo = [mn for mn in modes if (n_r, *mn) not in cache]
        for i in range(0, len(todo), stacks[n_r]):
            chunk = todo[i:i + stacks[n_r]]
            values = quotients(n_r, chunk)
            q = np.array(values)
            limit, model = bound(*np.array(chunk).T)
            bad = np.flatnonzero(sign * (limit - q) > _BOUND_SLACK * limit)
            if bad.size:
                k = bad[0]
                raise SolverError(f"model bound fails at mode {chunk[k]} on {n_r} nodes: "
                                  f"quotient/model = {q[k] / model[k]:.12g} "
                                  f"{'<' if sign > 0 else '>'} {limit[k] / model[k]:.12g}")
            worst = min(worst, float((sign * q / model).min()))
            cache.update(zip([(n_r, *mn) for mn in chunk], values))
        return [cache[(n_r, *mn)] for mn in modes]

    def sweep():
        """(key, seed, floor): sign * bound of every window mode by flat index
        (m - 1) (n_max + 1) + n, the model's extreme mode, and the least key."""
        key, seed, seed_key = np.empty(size), None, math.inf
        for start in range(0, size, _BOUND_BLOCK):
            m, n = np.divmod(np.arange(start, min(start + _BOUND_BLOCK, size)), n_max + 1)
            limit, model = bound(m + 1, n)
            key[start:start + n.size] = sign * limit
            i = np.argmin(sign * model)
            if sign * model[i] < seed_key:
                seed, seed_key = (int(m[i]) + 1, int(n[i])), sign * model[i]
        return key, seed, float(key.min())

    def screen(n_r):
        """(mode, competitor's shortfall, modes left unsolved) on n_r nodes."""
        key, seed, floor = sweep()
        keys = {seed: sign * solve(n_r, [seed])[0]}

        def cut():         # -inf once the best key reaches the floor of the bound
            best = min(keys.values())
            reached = best - floor <= _BOUND_SLACK * abs(floor)
            return -math.inf if reached else best + _MARGIN_TOL * abs(best)

        order = np.flatnonzero(key <= cut())
        order = order[np.argsort(key[order], kind="stable")]    # by key, then (m, n)
        for pos in range(0, len(order), stacks[n_r]):
            top = cut()
            chunk = [(i // (n_max + 1) + 1, i % (n_max + 1))
                     for i in order[pos:pos + stacks[n_r]].tolist() if key[i] <= top]
            if not chunk:
                break
            keys.update(zip(chunk, (sign * value for value in solve(n_r, chunk))))
        ranked = sorted(keys.values())
        tie = _BOUND_SLACK * abs(ranked[0])
        mode = min(mn for mn, k in keys.items() if k - ranked[0] <= tie)
        shortfall = (ranked[1] - ranked[0]
                     if len(ranked) > 1 and cut() > -math.inf else math.inf)
        return mode, shortfall, size - len(keys)

    best, shortfall, screened_out = screen(coarse_N)
    gap, rerun = None, False
    if N > coarse_N:
        fine, coarse = solve(N, [best])[0], cache[(coarse_N, *best)]
        gap = abs(fine - coarse) / abs(fine)
        if not (gap <= _GAP_TOL and shortfall > _MARGIN_TOL * abs(coarse)):
            best, _, screened_out = screen(N)
            rerun = True
    m0, n0 = best
    return ScanResult(value=solve(N, [best])[0], m=m0, n=n0,
                      on_boundary=m0 == m_max or n0 == n_max, evaluations=len(cache),
                      resolution_gap=gap, walked_at_N=rerun, screened_out=screened_out,
                      bound_ratio=sign * worst)


def _korn_model(geometry, m, n):
    """Closed-form model of the Korn quotient of the modes (m, n), broadcast.

    K_model = (h^2 s^2 / 12 + m_hat^4 / s^2) / (2 s) with s = n^2 + m_hat^2,
    capped at 1: the thin-shell reduction of the mode (1, n) with n^2
    replaced by s.  Two columns take the quotient of a rigid-motion trial
    field where that is smaller: n = 0 the torsion u_theta = r f(z),
    m_hat^2 / (2 (2 + m_hat^2)); n = 1 the bending beam w = sin(m_hat z),
    m_hat^2 / (4 + m_hat^2).  Without the n = 1 term the quotient/model ratio
    drops to 0.0075 at L = 100 (h = 0.99, mode (1, 1)).
    """
    m_hat2 = geometry.axial_wavenumber(m) ** 2
    s = n**2 + m_hat2
    model = np.minimum((geometry.h**2 * s**2 / 12.0 + m_hat2**2 / s**2) / (2.0 * s), 1.0)
    model = np.where(n == 0, np.minimum(model, m_hat2 / (2.0 * (2.0 + m_hat2))), model)
    return np.where(n == 1, np.minimum(model, m_hat2 / (4.0 + m_hat2)), model)


def _korn_bound(geometry, m, n):
    """(bound, model) of the Korn quotient of the modes (m, n), broadcast.

    The model is ``_korn_model``, and the bound is the model times the factor
    of the mode's thinness h sqrt(n^2 + m_hat^2): where that is at most
    _THIN_T, _THIN_BOUND_FACTOR (n >= 1) or _THIN_N0_BOUND_FACTOR (n = 0),
    elsewhere _BOUND_FACTOR.
    """
    model = _korn_model(geometry, m, n)
    thin = geometry.h * np.sqrt(n**2 + geometry.axial_wavenumber(m) ** 2) <= _THIN_T
    factor = np.where(n == 0, _THIN_N0_BOUND_FACTOR, _THIN_BOUND_FACTOR)
    return np.where(thin, factor, _BOUND_FACTOR) * model, model


def _thzzth_cap(geometry, m, n):
    """Proven upper bound of the thzzth quotient of the modes (m, n), broadcast:
    1 + nu + sqrt(1 + nu^2) with nu = (n / (m_hat r_in))^2, r_in = 1 - h/2; 2 at n = 0.

    At each radial node let a = m_hat f_t and b = n f_z / r.  Then G_tz = a,
    G_zt = -b, e_tz = (a - b) / 2 and e_zz = -(m_hat r / n) b, so with the
    positive weights W of ``_mode_operators``, ||e||^2 >= sum W (2 e_tz^2 + e_zz^2)
    >= sum W lambda_min (a^2 + b^2), lambda_min the least eigenvalue of
    [[1/2, -1/2], [-1/2, 1/2 + mu^2]] and mu = m_hat r / n.  1 / lambda_min is
    1 + nu + sqrt(1 + nu^2) with nu = 1 / mu^2, largest at r_in.  At n = 0,
    b = 0 and the cap is 2.  The cap is sharp: the n = 0 column reaches 2,
    and at h = 1e-4, L = pi the modes (1, 1) and (1, 2) reach 0.99995 and
    0.99991 of it.  It carries the factor 1 + _BOUND_SLACK, as the n = 0
    column reaches 2 to 1 ulp (quotient/cap 1 + 2.2e-16 at h = 0.1, L = 100,
    mode (5, 0)).
    """
    nu = (n / (geometry.axial_wavenumber(m) * geometry.r_inner)) ** 2
    return (1.0 + nu + np.sqrt(1.0 + nu**2)) * (1.0 + _BOUND_SLACK)


def _component_bound(geometry, group, m, n):
    """(bound, model) of the component quotient of ``group`` at the modes (m, n), broadcast.

    The group's norm^2 is at most a share of ||grad u||^2 <= ||e||^2 / K_low,
    K_low the bound of ``_korn_bound``, so the bound is share / K_low and
    the model share / K_model: the share is 1 for rthr and thzzth, entries
    of grad u, and 1 + 1/m_hat^2 for urrzzr, whose ||u_r||^2 is
    ||u_r,z||^2 / m_hat^2.  At n >= 2 it is at most (1 + m_hat^2) / s + tau
    for urrzzr and m_hat^2 (n^2 / (n^2 - 1))^2 / s^2 + tau for thzzth, with
    s = n^2 + m_hat^2 and tau = h^2 s / 12, empirical shares like the Korn
    factors (the README gives the worst measured quotient/bound).  thzzth's
    bound and model are also at most the proven ``_thzzth_cap``, which is
    what excludes its n <= 1 columns, where the share is 1 and 1 / K_low
    large.  ththzz is at most 1, its bound and model: G_tt = e_tt and
    G_zz = e_zz enter ||e||^2 with weight 1.
    """
    if group == "ththzz":
        one = np.ones(np.broadcast(m, n).shape)
        return one, one
    low, model = _korn_bound(geometry, m, n)
    m_hat2 = geometry.axial_wavenumber(m) ** 2
    s = n**2 + m_hat2
    tau = geometry.h**2 * s / 12.0
    share = 1.0                                             # rthr
    if group == "urrzzr":
        share = 1.0 + 1.0 / m_hat2
        share = np.where(n <= 1, share, np.minimum(share, (1.0 + m_hat2) / s + tau))
    elif group == "thzzth":
        ring = n**2 / np.maximum(n**2 - 1, 1)
        share = np.where(n <= 1, 1.0, np.minimum(1.0, m_hat2 * ring**2 / s**2 + tau))
        cap = _thzzth_cap(geometry, m, n)
        return np.minimum(share / low, cap), np.minimum(share / model, cap)
    return share / low, share / model


# most modes m_max (n_max + 1) a scan window admits (the default caps reach
# 512 x 513).  At h = 1e-2, N = 8 a Korn scan of m_max = 1,000,000, n_max = 0
# takes 0.08 s (8.6 MiB tracemalloc peak, mostly the screen's 8-byte key per
# mode), as does the transposed window.  On a thick short shell (h = 0.5,
# L = 0.1, N = 8) the screen solves every mode: 99,856 in 35-47 s for a
# 29 MiB peak, growing linearly.
MAX_SCAN_MODES = 1_000_000


def scan_window(geometry, group=None, m_max=None, n_max=None):
    """(m_max, n_max) of a Korn (group None) or component scan, the caps
    min(ceil(3/sqrt(h)), 512) unless given, after every check that needs no grid: an
    unknown group, pi h / L below its floor (``_FORM_MHAT_H_MIN``, else ``_MHAT_H_MIN``),
    an empty window, more than MAX_SCAN_MODES modes, and pi m_max / L above 1e75
    (past about 1.2e77 the Korn model's m_hat^4 overflows)."""
    if group is not None:
        group_keys(group)
    mhat_h = geometry.axial_wavenumber(1) * geometry.h
    mhat_h_min = _FORM_MHAT_H_MIN.get(group, _MHAT_H_MIN)
    if mhat_h < mhat_h_min:
        raise ParameterError(f"pi h / L = {mhat_h:.3g} is below {mhat_h_min:g}, the least "
                             f"this scan resolves")
    cap = min(int(math.ceil(3.0 / math.sqrt(geometry.h))), 512)
    m_max = cap if m_max is None else m_max
    n_max = cap if n_max is None else n_max
    if m_max < 1 or n_max < 0:
        raise ParameterError(f"empty scan window: need m_max >= 1 and n_max >= 0, "
                             f"got m_max={m_max}, n_max={n_max}")
    if m_max * (n_max + 1) > MAX_SCAN_MODES:
        raise ParameterError(f"scan window of m_max (n_max + 1) = {m_max * (n_max + 1)} "
                             f"modes exceeds {MAX_SCAN_MODES}")
    if geometry.axial_wavenumber(m_max) > 1e75:
        raise ParameterError(f"pi m_max / L = {geometry.axial_wavenumber(m_max):.3g} > 1e75: "
                             f"L = {geometry.L:g} is too short for the scan window")
    return m_max, n_max


def _scan(geometry, rows, bound, sign, m_max, n_max, N):
    """``_guarded_scan`` of the quotient of the pencils (C_num, C_den) = rows(ops) of
    ``_mode_operators``, least for sign +1, greatest for -1, on N and min(N, _COARSE_N) nodes."""
    grids = {n_r: radial_grid(geometry, N=n_r)
             for n_r in sorted({N, min(N, _COARSE_N)}, reverse=True)}

    def quotients(n_r, modes):
        pencils = rows(_mode_operators(grids[n_r], modes, geometry))
        return [value for value, _ in _solve_stack(*pencils, sign)]

    return _guarded_scan(quotients, bound, sign, N, m_max, n_max)


def korn_constant(geometry, m_max=None, n_max=None, N=32):
    """K(V_h) = min over modes of ||e||^2 / ||grad u||^2, with argmin.

    Returns a ScanResult: the minimum over the window 1 <= m <= m_max,
    0 <= n <= n_max; every unsolved mode is excluded by its lower bound
    ``_korn_bound``, and a solved mode below its bound is a
    ``SolverError``.  The screen of ``_guarded_scan`` runs on _COARSE_N
    radial nodes behind its resolution guard, or else on N, and the value is
    a solve on N; ``on_boundary`` warns that the scan caps were probably too
    small.
    """
    m_max, n_max = scan_window(geometry, None, m_max, n_max)
    return _scan(geometry, lambda ops: (_form_rows("strain", ops), _form_rows("grad", ops)),
                 functools.partial(_korn_bound, geometry), 1.0, m_max, n_max, N)


def component_bound(geometry, group, m_max=None, n_max=None, N=32):
    """sup over modes of (component-group norm^2) / ||e||^2.

    Returns a ScanResult: the maximum over the window of ``korn_constant``,
    by the same screen, with the upper bounds of ``_component_bound``; a
    solved mode above its bound is a ``SolverError``.  The rthr, urrzzr and
    thzzth shares are empirical; thzzth's cap ``_thzzth_cap`` and the bound
    1 of ``ththzz`` are proven.  ``ththzz`` is at most
    1 on every mode, and many modes reach 1 to rounding, so its screen stops
    at the first mode within 1e-12 of 1; its reported argmin is not unique.
    urrzzr and thzzth admit pi h / L >= 1e-5, the other groups
    pi h / L >= 1e-10 (``_FORM_MHAT_H_MIN``, ``_MHAT_H_MIN``).
    """
    m_max, n_max = scan_window(geometry, group, m_max, n_max)
    return _scan(geometry,
                 lambda ops: (_form_rows(f"component:{group}", ops), _form_rows("strain", ops)),
                 functools.partial(_component_bound, geometry, group), -1.0, m_max, n_max, N)
