"""Korn-constant and gradient-component scaling verification.

Fourier reduction: on the cylinder every quadratic form appearing in the Korn
quotient ||e(u)||^2 / ||grad u||^2 decouples over modes

    u_r = f_r(r) sin(m_hat z) cos(n theta),
    u_t = f_t(r) sin(m_hat z) sin(n theta),
    u_z = f_z(r) cos(m_hat z) cos(n theta),

so the infimum is a minimum over (m, n) of small radial generalized
eigenproblems.  The radial profiles are discretized by Chebyshev-Gauss-Lobatto
collocation (spectral differentiation + Clenshaw-Curtis weights).  The tests
keep a uniform first-order nodal grid as an oracle for it.
"""

from dataclasses import dataclass
import math

import numpy as np

from cylshell.blas import single_thread_blas
from cylshell.errors import ParameterError, SolverError
from cylshell.fields import (GRAD_KEYS, STRAIN_KEYS, STRAIN_WEIGHT, cylindrical_gradient,
                             symmetrize)

COMPONENT_GROUPS = {
    "ththzz": ("tt", "zz"),
    "rthr": ("rt", "tr"),
    "urrzzr": ("ur", "rz", "zr"),
    "thzzth": ("tz", "zt"),
}

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
    """Collocation grid on I_h: nodes, first-derivative matrix, weights."""

    nodes: np.ndarray
    D: np.ndarray
    weights: np.ndarray

    @property
    def N(self):
        return self.nodes.size


def radial_grid(geometry, N=32):
    """Chebyshev-Gauss-Lobatto grid with N nodes on I_h."""
    if N < 3:
        raise ParameterError(f"need at least 3 radial nodes, got N={N}")
    a, b = geometry.I_h
    x, D, w = _cheb_lobatto(N - 1)
    scale = (b - a) / 2.0
    nodes = a + (x + 1.0) * scale
    return RadialGrid(nodes=nodes, D=D / scale, weights=w * scale)


@dataclass(frozen=True)
class QuadraticFormPair:
    """Numerator/denominator forms v -> ||C_num v||^2, ||C_den v||^2.

    Kept as weighted row stacks, never squared into matrices (see
    ``_solve_pencil`` for why).
    """

    C_num: np.ndarray
    C_den: np.ndarray

    def quotient(self, v):
        y_num = self.C_num @ v
        y_den = self.C_den @ v
        return float(y_num @ y_num) / float(y_den @ y_den)


def _weighted_operators(m, n, geometry, grid):
    """Profile operators with sqrt(W) * (component values) = op @ dofs.

    W is the radial quadrature weight times r times the angular-axial mode
    normalization, so a sum of squared rows integrates over the shell.  The
    mode's 12 partials of (u_r, u_theta, u_z) are operators on the dofs
    (f_r, f_t, f_z): the value, d/dr through D, d/dtheta as (-n, +n, -n) and
    d/dz as (+m_hat, +m_hat, -m_hat) times the value.  The gradient entries
    come from ``fields.cylindrical_gradient`` and are keyed as in
    ``fields.GRAD_KEYS``; "ur" is u_r.  At m = 0, sin(0 z) = 0 removes u_r and
    u_t, so only the f_z columns are kept and the axial factor is L instead
    of L/2.
    """
    N = grid.N
    r = grid.nodes
    m_hat = math.pi * m / geometry.L
    ang = math.pi if n >= 1 else 2.0 * math.pi
    I, Z = np.eye(N), np.zeros((N, N))
    p = {}
    for j, (c, d_th, d_z) in enumerate((("ur", -n, m_hat), ("ut", n, m_hat),
                                        ("uz", -n, -m_hat))):
        F = np.hstack([I if k == j else Z for k in range(3)])
        p.update({c: F, c + "_r": np.hstack([grid.D if k == j else Z for k in range(3)]),
                  c + "_t": d_th * F, c + "_z": d_z * F})
    ops = {**cylindrical_gradient(p, r[:, None]), "ur": p["ur"]}
    if m == 0:
        ops = {key: op[:, 2 * N:] for key, op in ops.items()}
    zfac = geometry.L if m == 0 else geometry.L / 2.0
    sqw = np.sqrt(grid.weights * r * (ang * zfac))
    return {key: sqw[:, None] * op for key, op in ops.items()}


def _form_rows(kind, ops):
    """Row stack C of one norm, ||C v||^2 = the norm squared of mode v.

    kind: 'strain', 'grad', or 'component:<group>' with group in
    COMPONENT_GROUPS.
    """
    if kind == "strain":
        e = symmetrize(ops)
        return np.vstack([math.sqrt(STRAIN_WEIGHT[k]) * e[k] for k in STRAIN_KEYS])
    if kind == "grad":
        keys = GRAD_KEYS
    elif kind.startswith("component:"):
        group = kind.split(":", 1)[1]
        if group not in COMPONENT_GROUPS:
            raise ParameterError(f"unknown component group {group!r}")
        keys = COMPONENT_GROUPS[group]
    else:
        raise ParameterError(f"unknown form kind {kind!r}")
    return np.vstack([ops[k] for k in keys])


def _constraint_basis(m, n, geometry, grid):
    """Basis of the admissible DOF space; removes the m=n=0 constant u_z."""
    if m == 0 and n == 0:
        # zero bottom-average: the annulus integral of f_z vanishes; keep the
        # orthogonal complement of the constraint vector
        c = grid.weights * grid.nodes
        c = c / np.linalg.norm(c)
        proj = np.eye(grid.N) - np.outer(c, c)
        u, s, _ = np.linalg.svd(proj)
        return u[:, s > 1e-10]
    return None


def assemble_mode_forms(m, n, geometry, grid, numerator="strain", denominator="grad"):
    """Quadratic-form pair for the Rayleigh quotient numerator/denominator."""
    ops = _weighted_operators(m, n, geometry, grid)
    C_num = _form_rows(numerator, ops)
    C_den = _form_rows(denominator, ops)
    B = _constraint_basis(m, n, geometry, grid)
    if B is not None:
        C_num, C_den = C_num @ B, C_den @ B
    return QuadraticFormPair(C_num=C_num, C_den=C_den)


def _solve_pencil(pair, index):
    """One extreme eigenpair of the quotient via a one-sided QR/SVD reduction.

    The numerator and denominator forms are kept as weighted row stacks
    C_num, C_den (never squared into matrices), the denominator is reduced by
    a QR factorization C_den = Q R, and the extreme quotients are the squared
    extreme singular values of B = C_num R^{-1}, formed by a linear solve
    with R^T (numpy has no triangular solver).  This is backward stable:
    the tiny Korn quotients at small thickness come out with relative
    accuracy ~ eps * cond(B), where cond(B)^2 is the quotient spread itself,
    whereas any formulation squaring the operators hits an absolute noise
    floor eps * ||C||^2 that can exceed the answer by orders of magnitude.

    The residual ||S y - lam M y|| <= 1e-8 ||M y|| is enforced in the
    R-transformed coordinates (S, M) = (B^T B, I) where the problem is
    actually solved.  When LAPACK's divide-and-conquer SVD (gesdd) does not
    converge, the SVD is retried once with the QR-iteration driver (gesvd),
    and the residual gate applies to its answer alike.  A LAPACK failure that
    remains is a ``SolverError`` too.
    """
    try:
        R = np.linalg.qr(pair.C_den, mode="r")
        dR = np.abs(np.diag(R))
        if not np.all(dR > 1e-14 * dR.max()):
            raise SolverError("denominator form numerically rank-deficient")
        B = np.linalg.solve(R.T, pair.C_num.T).T
        try:
            _, s, Vt = np.linalg.svd(B, full_matrices=False)
        except np.linalg.LinAlgError:
            import scipy.linalg      # only here: numpy has no gesvd driver
            _, s, Vt = scipy.linalg.svd(B, full_matrices=False, lapack_driver="gesvd")
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"pencil reduction failed: {exc}") from exc
    y = Vt[-1 if index == 0 else 0]          # singular values sort descending
    lam = float(s[-1 if index == 0 else 0] ** 2)
    res = np.linalg.norm(B.T @ (B @ y) - lam * y)
    if res > 1e-8 * max(1.0, lam):
        raise SolverError(f"eigen residual {res:.3e} exceeds 1e-8")
    v = np.linalg.solve(R, y)
    return float(pair.quotient(v)), v


def min_rayleigh(pair):
    """Smallest quotient ||C_num v||^2 / ||C_den v||^2 with its minimizer v."""
    return _solve_pencil(pair, 0)


def max_rayleigh(pair):
    """Largest quotient ||C_num v||^2 / ||C_den v||^2 with its maximizer v."""
    return _solve_pencil(pair, -1)


# radial nodes of the ladder that picks a scan's starting mode; every scan
# of the acceptance sweeps ends at the same mode as with a ladder at N = 32
_LADDER_N = 8


def _geometric_ladder(hi):
    """Integers from 1 to hi in steps of about 1.35x (empty when hi < 1)."""
    vals = []
    x = 1.0
    while x <= hi:
        vals.append(int(round(x)))
        x = max(x * 1.35, x + 1.0)
    vals.append(int(hi))
    return sorted(set(v for v in vals if 1 <= v <= hi))


@dataclass(frozen=True)
class ScanResult:
    """Extremum of a mode scan at the requested radial N.

    ``evaluations`` counts every per-mode solve of the scan: the coarse-grid
    ladder plus the requested-N walk.
    """

    value: float
    m: int
    n: int
    on_boundary: bool
    evaluations: int


def _scan_extremize(quotient, N, m_max, n_max, maximize):
    """Coarse geometric ladder, then a local walk to an extremum of quotient.

    ``quotient(n_r, m, n)`` is the per-mode quotient on n_r radial nodes.
    Modes range over 1 <= m <= m_max, 0 <= n <= n_max.  The ladder only
    picks the walk's starting mode, so it runs on min(N, _LADDER_N) nodes;
    the walk and the returned value use N.  Each walk step solves the 5x5
    neighbourhood of the current mode and moves to its best mode only when
    that beats the current value by more than 1e-12 relative; otherwise the
    walk stops, so it does not wander across modes that tie to rounding.
    One cache keyed by (n_r, m, n) holds every solve.  All solves run with
    BLAS on one thread.
    """
    cache = {}

    def get(n_r, m, n):
        if (n_r, m, n) not in cache:
            cache[n_r, m, n] = quotient(n_r, m, n)
        return cache[n_r, m, n]

    sign = -1.0 if maximize else 1.0
    ladder_N = min(N, _LADDER_N)
    candidates = [(m, n) for m in _geometric_ladder(m_max)
                  for n in _geometric_ladder(n_max) + [0]]
    with single_thread_blas():
        best = min(candidates, key=lambda mn: sign * get(ladder_N, *mn))
        # local refinement: walk while a neighbour beats the current mode
        for _ in range(200):
            m0, n0 = best
            neigh = [(m0 + dm, n0 + dn)
                     for dm in (-2, -1, 0, 1, 2) for dn in (-2, -1, 0, 1, 2)
                     if 1 <= m0 + dm <= m_max and 0 <= n0 + dn <= n_max]
            new_best = min(neigh, key=lambda mn: sign * get(N, *mn))
            current = get(N, m0, n0)
            if sign * (get(N, *new_best) - current) >= -1e-12 * abs(current):
                break
            best = new_best
        m0, n0 = best
        value = get(N, m0, n0)
    on_boundary = m0 == m_max or n0 == n_max
    return ScanResult(value=value, m=m0, n=n0, on_boundary=on_boundary,
                      evaluations=len(cache))


def _scan_caps(geometry, m_max, n_max):
    """Scan caps, min(ceil(3/sqrt(h)), 512) unless given; rejects an empty window."""
    cap = min(int(math.ceil(3.0 / math.sqrt(geometry.h))), 512)
    m_max = cap if m_max is None else m_max
    n_max = cap if n_max is None else n_max
    if m_max < 1 or n_max < 0:
        raise ParameterError(f"empty scan window: need m_max >= 1 and n_max >= 0, "
                             f"got m_max={m_max}, n_max={n_max}")
    return m_max, n_max


def _scan_quotient(geometry, numerator, denominator, maximize, m_max, n_max, N):
    """Extremum over modes of the quotient of two forms, ladder on _LADDER_N nodes."""
    grids = {n_r: radial_grid(geometry, N=n_r) for n_r in {N, min(N, _LADDER_N)}}

    def quotient(n_r, m, n):
        pair = assemble_mode_forms(m, n, geometry, grids[n_r], numerator, denominator)
        return (max_rayleigh if maximize else min_rayleigh)(pair)[0]

    m_max, n_max = _scan_caps(geometry, m_max, n_max)
    return _scan_extremize(quotient, N, m_max, n_max, maximize)


def korn_constant(geometry, m_max=None, n_max=None, N=32):
    """K(V_h) = min over modes of ||e||^2 / ||grad u||^2, with argmin.

    Returns a ScanResult: a local minimum over the 5x5 mode neighbourhood at
    N radial nodes; ``on_boundary`` warns that the scan caps were probably
    too small.
    """
    return _scan_quotient(geometry, "strain", "grad", False, m_max, n_max, N)


def component_bound(geometry, group, m_max=None, n_max=None, N=32):
    """sup over modes of (component-group norm^2) / ||e||^2.

    ``ththzz`` is at most 1 for every mode by definition: G_tt = e_tt and
    G_zz = e_zz, and both enter ||e||^2 with weight 1.  Many modes reach 1
    to rounding, so its reported argmin is not unique and moves with N and h;
    the scan's walk stops at the first mode that no neighbour beats by more
    than 1e-12 relative.
    """
    if group not in COMPONENT_GROUPS:
        raise ParameterError(f"unknown component group {group!r}; "
                             f"choose from {sorted(COMPONENT_GROUPS)}")
    return _scan_quotient(geometry, f"component:{group}", "strain", True, m_max, n_max, N)
