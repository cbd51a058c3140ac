"""Isotropic material data, the trivial equilibrium branch, and stress weights.

The shell is loaded along the axis; the homogeneous (trivial) equilibrium
branch is parametrized by the load lambda through the coefficients a(lambda)
(radial expansion) and b(lambda) (axial contraction).  Stress weights are the
unit-normalized linearized stress tensors that enter the compressiveness
functional: perfect axial compression e_z (x) e_z, the shear imperfection
(sigma_tz = s(theta), sigma_zz = -z s'(theta)) or the hoop imperfection
(sigma_tt = 1).  A weight holds only its nonzero components.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from cylshell.errors import NoTrivialBranchError, ParameterError


@dataclass(frozen=True)
class Material:
    """Isotropic elastic constants with the derived combinations used here.

    mu = E/(2(1+nu)), Lambda = 2 nu/(1-2 nu), lambda_lame = mu*Lambda.
    The quadratic energy density is (L0 e, e) = lambda_lame (Tr e)^2
    + 2 mu |e|^2, coercive with constant alpha_L0 = 2 mu.
    """

    E: float
    nu: float
    mu: float
    lambda_lame: float
    Lambda: float

    @property
    def alpha_L0(self):
        return 2.0 * self.mu

    def energy_density(self, trace_e, norm_e_sq):
        """(L0 e, e) from Tr e and |e|^2."""
        return self.lambda_lame * trace_e**2 + 2.0 * self.mu * norm_e_sq


def derive_material(E, nu):
    """Build a Material from Young's modulus and Poisson's ratio."""
    if not 0 < E < math.inf:
        raise ParameterError(f"Young modulus E must be finite and positive, got E={E}")
    if not 0 < nu < 0.5:
        raise ParameterError(f"Poisson ratio nu must lie in (0, 1/2), got nu={nu}")
    mu = E / (2.0 * (1.0 + nu))
    Lambda = 2.0 * nu / (1.0 - 2.0 * nu)
    return Material(E=E, nu=nu, mu=mu, lambda_lame=mu * Lambda, Lambda=Lambda)


@dataclass(frozen=True)
class ShellGeometry:
    """Cylindrical shell C_h = I_h x T x [0, L] with I_h = [1-h/2, 1+h/2]."""

    h: float
    L: float

    def __post_init__(self):
        if not 0 < self.h < 1:
            raise ParameterError(f"thickness h must lie in (0, 1), got h={self.h}")
        if not 0 < self.L < math.inf:
            raise ParameterError(f"length L must be finite and positive, got L={self.L}")

    @property
    def r_inner(self):
        return 1.0 - self.h / 2.0

    @property
    def r_outer(self):
        return 1.0 + self.h / 2.0

    @property
    def I_h(self):
        return (self.r_inner, self.r_outer)

    def axial_wavenumber(self, m):
        """m_hat = pi m / L of the axial modes m >= 1 (int or array); ``korn`` says why not 0."""
        bad = np.asarray(m) < 1
        if np.any(bad):
            raise ParameterError(f"axial mode m={np.asarray(m).flat[np.argmax(bad)]:g} "
                                 f"must be >= 1")
        return math.pi * m / self.L


def shell_sweep(h_list, L):
    """The validated shells of a non-empty h-sweep of distinct h at length L,
    largest h first."""
    if len(h_list) == 0:
        raise ParameterError("h_list must be non-empty")
    shells = [ShellGeometry(h=h, L=L) for h in sorted(h_list, reverse=True)]
    if len({geo.h for geo in shells}) < len(shells):
        raise ParameterError(f"h values must be distinct, got h_list={list(h_list)}")
    return shells


# Largest admissible b on the trivial branch: b < 1 - 1/sqrt(3).
B_MAX = 1.0 - 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class TrivialBranch:
    """Coefficients of the homogeneous axisymmetric equilibrium at load lambda."""

    load: float
    a: float
    b: float
    residual: float


def trivial_branch_cubic(b, E, load):
    """Residual of E b (1-b)(2-b) = 2 lambda."""
    return E * b * (1.0 - b) * (2.0 - b) - 2.0 * load


def solve_trivial_branch(material, load):
    """Solve for the trivial branch (a, b) at the given load.

    b is the unique root of E b(1-b)(2-b) = 2 lambda in [0, 1 - 1/sqrt(3));
    a = sqrt(1 + nu(2b - b^2)) - 1.  Admissible loads: 0 <= lambda < E/(3 sqrt 3).

    With c = 1 - b the cubic is c - c^3 = q, q = 2 lambda / E, and c is its
    largest root, (2/sqrt 3) cos(arccos(-(3 sqrt 3 / 2) q) / 3).  b is taken
    as q / (c (1 + c)) and a as x / (sqrt(1 + x) + 1) with x = nu(2b - b^2);
    neither cancels at small loads.
    """
    E, nu = material.E, material.nu
    load_max = E / (3.0 * math.sqrt(3.0))
    if not 0 <= load < load_max:
        raise NoTrivialBranchError(
            f"no trivial branch at lambda={load}: admissible range is "
            f"0 <= lambda < E/(3*sqrt(3)) = {load_max:.6g}"
        )
    q = 2.0 * load / E
    arg = max(-1.0, -1.5 * math.sqrt(3.0) * q)      # rounding can pass -1 next to load_max
    c = 2.0 / math.sqrt(3.0) * math.cos(math.acos(arg) / 3.0)
    b = q / (c * (1.0 + c))
    x = nu * (2.0 * b - b * b)
    a = x / (math.sqrt(1.0 + x) + 1.0)
    residual = abs(trivial_branch_cubic(b, E, load))
    if residual > 1e-12 * E:
        raise NoTrivialBranchError(
            f"trivial-branch cubic residual {residual:.3e} exceeds 1e-12*E"
        )
    return TrivialBranch(load=load, a=a, b=b, residual=residual)


def _check_periodic(f, name):
    vals = np.array([f(0.0), f(2 * np.pi)], dtype=float)
    scale = max(1.0, float(np.max(np.abs([f(t) for t in np.linspace(0, 2 * np.pi, 17)]))))
    if abs(vals[0] - vals[1]) > 1e-10 * scale:
        raise ParameterError(f"{name} is not 2*pi-periodic: "
                             f"f(0)={vals[0]:.6g} vs f(2*pi)={vals[1]:.6g}")


@dataclass(frozen=True)
class StressWeight:
    """Unit-normalized linearized stress sigma^0(theta, z).

    Component functions are keyed by 'rr', 'rt', 'rz', 'tt', 'tz', 'zz' and
    take broadcastable (theta, z) arrays; a component not given is zero.
    Off-diagonal components enter the contraction twice.
    """

    components: dict = field(default_factory=dict)

    def tensor(self, theta, z):
        """The weight's own components at (theta, z) arrays, each of the broadcast shape."""
        theta = np.asarray(theta, dtype=float)
        z = np.asarray(z, dtype=float)
        shape = np.broadcast(theta, z).shape
        return {key: np.broadcast_to(np.asarray(f(theta, z), dtype=float), shape)
                for key, f in self.components.items()}


def perfect_stress():
    """Perfect axial compression: sigma = e_z (x) e_z."""
    return StressWeight(components={"zz": lambda theta, z: np.ones_like(theta + z)})


def shear_imperfection(s):
    """Shear-imperfection stress: sigma_tz = s(theta), sigma_zz = -z s'(theta).

    s is 2*pi-periodic; s' is computed by a fourth-order central difference
    with step 1e-6.
    """
    _check_periodic(s, "s")

    def ds(theta):
        th, eps = np.asarray(theta, dtype=float), 1e-6
        return (8 * (s(th + eps) - s(th - eps))
                - (s(th + 2 * eps) - s(th - 2 * eps))) / (12 * eps)

    def sigma_tz(theta, z):
        return np.asarray(s(theta)) + np.zeros_like(np.asarray(z, dtype=float))

    def sigma_zz(theta, z):
        return -np.asarray(z, dtype=float) * np.asarray(ds(theta))

    return StressWeight(components={"tz": sigma_tz, "zz": sigma_zz})


def hoop_imperfection():
    """Hoop-imperfection stress: only sigma_tt = 1 nonzero."""
    return StressWeight(components={"tt": lambda theta, z: np.ones_like(theta + z)})
