"""Cylindrical-coordinate field calculus.

A displacement field is its three mid-surface profiles f = (f_r, f_theta, f_z),
through the map U(f)

    u_r = f_r,   u_theta = r f_theta - (r-1) f_r,theta,   u_z = f_z - (r-1) f_r,z.

A profile is any callable f(theta, z, dth=0, dz=0) with closed-form partial
derivatives (trig modes, the compressed bending bump; f = 0 is
``TrigSurface(amp=0.0)``).  Every field built here -- the Koiter modes, the
clamped-edge modes, the bending ansatz -- is a ``DisplacementField`` of three
such profiles, so each component and its r-derivatives are closed-form in
the profiles, and the reduced forms Q0, Q1*, B, hence K*, are defined on
every field.
A field's ``partials(r, theta, z)`` returns its three components and their
first derivatives in r, theta and z; ``cylindrical_gradient`` turns those 12
partials into the nine entries of grad u, and the korn mode operators go
through the same formula.  ``norm_terms`` writes each norm once, for korn's
pencil rows and the ansatz's quadrature.  Gradients, strains, the simplified
tensors G/E and all L2 norms are computed by tensor-product quadrature; the
compressiveness integrand sums over the stress weight's own components
only.  Fields with general radial profiles live only in the korn oracle
test, which implements ``partials`` for them.
"""

from dataclasses import dataclass, replace
import functools

import numpy as np

from cylshell.errors import NotDestabilizingError, ParameterError
from cylshell.material import perfect_stress


# ---------------------------------------------------------------------------
# surface profiles f(theta, z, dth=0, dz=0) -> broadcastable array


def _trig(kind, freq, x, d):
    """d-th derivative of cos/sin(freq*x), or the constant 1 for kind 'one'."""
    x = np.asarray(x, dtype=float)
    if kind == "one":
        return np.ones_like(x) if d == 0 else np.zeros_like(x)
    shift = d * (np.pi / 2.0)
    if kind == "cos":
        return freq**d * np.cos(freq * x + shift)
    if kind == "sin":
        return freq**d * np.sin(freq * x + shift)
    raise ParameterError(f"unknown trig kind {kind!r}")


@dataclass(frozen=True)
class TrigSurface:
    """amp * trig(n*theta) * trig(k*z)."""

    theta_kind: str = "one"
    n: float = 0.0
    z_kind: str = "one"
    k: float = 0.0
    amp: float = 1.0

    def __call__(self, theta, z, dth=0, dz=0):
        return (self.amp * _trig(self.theta_kind, self.n, theta, dth)
                * _trig(self.z_kind, self.k, z, dz))


@dataclass(frozen=True)
class SumSurface:
    parts: tuple

    def __call__(self, theta, z, dth=0, dz=0):
        return sum(p(theta, z, dth, dz) for p in self.parts)


# ---------------------------------------------------------------------------
# displacement fields


# the mid-surface derivatives (profile, dth, dz) that U(f), its gradient and
# the reduced forms read
_JET = {
    "fr": ("f_r", 0, 0), "fr_t": ("f_r", 1, 0), "fr_z": ("f_r", 0, 1),
    "fr_tt": ("f_r", 2, 0), "fr_tz": ("f_r", 1, 1), "fr_zz": ("f_r", 0, 2),
    "ft": ("f_t", 0, 0), "ft_t": ("f_t", 1, 0), "ft_z": ("f_t", 0, 1),
    "fz": ("f_z", 0, 0), "fz_t": ("f_z", 1, 0), "fz_z": ("f_z", 0, 1),
}


def surface_jet(field, theta, z):
    """The 12 mid-surface profile derivatives of a U(f) field, each evaluated once."""
    return {key: getattr(field, prof)(theta, z, dth, dz)
            for key, (prof, dth, dz) in _JET.items()}


@dataclass(frozen=True)
class DisplacementField:
    """The U(f) field of the mid-surface profiles f_r, f_t, f_z.

    ``partials(r, theta, z)`` evaluates the components and their first
    derivatives in closed form from the profiles; the field is affine in r, so
    second r-derivatives vanish.  General radial profiles are not
    representable; they live only in the korn oracle test.

    bc_tag is one of 'average_top' (u_r = u_theta = 0 at z in {0, L}, zero-mean
    u_z on the bottom annulus), 'fixed_bottom' (additionally u_z = 0 at z = 0),
    or None.
    """

    f_r: object
    f_t: object
    f_z: object
    bc_tag: str = None

    def partials(self, r, theta, z):
        """u_r, u_theta, u_z ("ur", "ut", "uz") and their r, theta, z derivatives
        ("ur_r", "ur_t", "ur_z", ...) at (r, theta, z), in closed form from
        ``surface_jet``; each value broadcasts to the shape of (r, theta, z).
        """
        return jet_partials(surface_jet(self, theta, z), r, theta, z)


def jet_partials(j, r, theta, z):
    """``DisplacementField.partials`` from the surface jet j at (theta, z)."""
    r = np.asarray(r, dtype=float)
    s = r - 1.0
    return {
        "ur": j["fr"], "ur_r": np.zeros(np.broadcast(r, theta, z).shape),
        "ur_t": j["fr_t"], "ur_z": j["fr_z"],
        "ut": r * j["ft"] - s * j["fr_t"], "ut_r": j["ft"] - j["fr_t"],
        "ut_t": r * j["ft_t"] - s * j["fr_tt"], "ut_z": r * j["ft_z"] - s * j["fr_tz"],
        "uz": j["fz"] - s * j["fr_z"], "uz_r": -j["fr_z"],
        "uz_t": j["fz_t"] - s * j["fr_tz"], "uz_z": j["fz_z"] - s * j["fr_zz"],
    }


GRAD_KEYS = ("rr", "rt", "rz", "tr", "tt", "tz", "zr", "zt", "zz")


def cylindrical_gradient(p, r):
    """The nine entries of grad u in cylindrical coordinates from the partials p.

    p holds u_r, u_theta, u_z and their r, theta, z derivatives under the keys
    of ``DisplacementField.partials``.  The partials may be value arrays at
    radii r, or operator matrices whose rows sit at radii r (then r is a
    column); either way the 1/r entries multiply by 1/r.
    """
    rinv = 1.0 / r
    return {"rr": p["ur_r"], "rt": rinv * (p["ur_t"] - p["ut"]), "rz": p["ur_z"],
            "tr": p["ut_r"], "tt": rinv * (p["ut_t"] + p["ur"]), "tz": p["ut_z"],
            "zr": p["uz_r"], "zt": rinv * p["uz_t"], "zz": p["uz_z"]}


def gradient(field, r, theta, z):
    """The nine cylindrical gradient components at (r, theta, z) arrays."""
    r = np.asarray(r, dtype=float)
    return cylindrical_gradient(field.partials(r, theta, z), r)


def simplified_G(g, r):
    """The simplified gradient G(u) from grad u at radii r: (tt) and (zt) times r."""
    return {**g, "tt": g["tt"] * r, "zt": g["zt"] * r}


STRAIN_KEYS = ("rr", "tt", "zz", "rt", "rz", "tz")
# multiplicity of each strain component in |e|^2
STRAIN_WEIGHT = {"rr": 1.0, "tt": 1.0, "zz": 1.0, "rt": 2.0, "rz": 2.0, "tz": 2.0}


def symmetrize(g):
    """Strain-type tensor from a gradient-type dict."""
    return {
        "rr": g["rr"],
        "tt": g["tt"],
        "zz": g["zz"],
        "rt": 0.5 * (g["rt"] + g["tr"]),
        "rz": 0.5 * (g["rz"] + g["zr"]),
        "tz": 0.5 * (g["tz"] + g["zt"]),
    }


def strain(field, r, theta, z):
    return symmetrize(gradient(field, r, theta, z))


COMPONENT_GROUPS = {
    "ththzz": ("tt", "zz"),
    "rthr": ("rt", "tr"),
    "urrzzr": ("ur", "rz", "zr"),
    "thzzth": ("tz", "zt"),
}


def group_keys(group):
    """The gradient keys of a component group; another group is a ParameterError."""
    if group not in COMPONENT_GROUPS:
        raise ParameterError(f"unknown component group {group!r}; "
                             f"choose from {sorted(COMPONENT_GROUPS)}")
    return COMPONENT_GROUPS[group]


def norm_terms(kind, g):
    """(weight, term) pairs of the norm ``kind``, whose density is sum weight * term**2.

    kind: 'strain' (|e(u)|^2), 'grad' (|grad u|^2) or 'component:<group>', else a
    ParameterError.  g: gradient-type values or korn mode operators, with "ur" (u_r).
    """
    if kind == "strain":
        e = symmetrize(g)
        return [(STRAIN_WEIGHT[k], e[k]) for k in STRAIN_KEYS]
    if kind == "grad":
        keys = GRAD_KEYS
    elif kind.startswith("component:"):
        keys = group_keys(kind.split(":", 1)[1])
    else:
        raise ParameterError(f"unknown norm kind {kind!r}")
    return [(1.0, g[k]) for k in keys]


# ---------------------------------------------------------------------------
# quadrature


@functools.lru_cache(maxsize=None)
def _unit_gauss(n):
    """The n-point Gauss-Legendre rule on [-1, 1], computed once per n."""
    return np.polynomial.legendre.leggauss(n)


def _gauss(a, b, n):
    x, w = _unit_gauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


@dataclass(frozen=True)
class Grid:
    """Tensor-product quadrature grid on I_h x [0, 2pi) x [0, L], measure r dr dtheta dz."""

    r_nodes: np.ndarray
    r_weights: np.ndarray
    th_nodes: np.ndarray
    th_weights: np.ndarray
    z_nodes: np.ndarray
    z_weights: np.ndarray

    @property
    def R(self):
        return self.r_nodes[:, None, None]

    @property
    def TH(self):
        return self.th_nodes[None, :, None]

    @property
    def Z(self):
        return self.z_nodes[None, None, :]

    def integrate(self, values):
        w = ((self.r_weights * self.r_nodes)[:, None, None]
             * self.th_weights[None, :, None] * self.z_weights[None, None, :])
        vals = np.broadcast_to(values, w.shape)
        return float(np.sum(w * vals))

    def norm_sq(self, values):
        return self.integrate(np.asarray(values) ** 2)


def volume_grid(geometry, n_r=6, n_th=16, n_z=16, theta_interval=None):
    """Quadrature grid over C_h.

    theta is a uniform periodic-trapezoid rule on [0, 2pi) unless
    theta_interval=(a, b) is given, in which case Gauss-Legendre nodes on
    (a, b) are used (for compactly supported integrands).
    """
    a, b = geometry.I_h
    rn, rw = _gauss(a, b, n_r)
    if theta_interval is None:
        tn = np.arange(n_th) * (2.0 * np.pi / n_th)
        tw = np.full(n_th, 2.0 * np.pi / n_th)
    else:
        tn, tw = _gauss(theta_interval[0], theta_interval[1], n_th)
    zn, zw = _gauss(0.0, geometry.L, n_z)
    return Grid(rn, rw, tn, tw, zn, zw)


# ---------------------------------------------------------------------------
# functionals


@dataclass(frozen=True)
class FunctionalValue:
    """Stability S, compressiveness C, and their ratio."""

    S: float
    C: float

    @property
    def ratio(self):
        if self.C <= 0.0:
            raise NotDestabilizingError(
                f"C = {self.C:.6g} <= 0: not a destabilizing variation")
        return self.S / self.C


def stability_integrand(material, e):
    """(L0 e, e) pointwise from a strain-type dict."""
    return material.energy_density(e["rr"] + e["tt"] + e["zz"],
                                   sum(STRAIN_WEIGHT[k] * e[k] ** 2 for k in STRAIN_KEYS))


def compressiveness_integrand(stress, g, theta, z):
    """(sigma, grad(u)^T grad(u)) pointwise, over the weight's own components."""
    sig = stress.tensor(theta, z)
    cols = {i: [g[a + i] for a in "rtz"] for i in "rtz"}
    out = 0.0
    for key in (k for k in STRAIN_KEYS if k in sig):
        i, j = key
        m = sum(ci * cj for ci, cj in zip(cols[i], cols[j]))
        out = out + STRAIN_WEIGHT[key] * sig[key] * m
    return out


def _stability_compressiveness(g, stress, material, grid):
    """S and C of a variation from its gradient on the grid's nodes."""
    S = grid.integrate(stability_integrand(material, symmetrize(g)))
    C = grid.integrate(compressiveness_integrand(stress, g, grid.TH, grid.Z))
    return FunctionalValue(S=S, C=C)


def functionals(field, stress, material, grid):
    """Stability and compressiveness of a variation under a stress weight."""
    return _stability_compressiveness(gradient(field, grid.R, grid.TH, grid.Z),
                                      stress, material, grid)


def reduced_surface_forms(j, grid):
    """Q0 parts, Q1* core and B of a U(f)-form field by mid-surface quadrature.

    The integrals run over the grid's own theta and z rules at the single
    radius r = 1 with unit weight, i.e. with the measure dtheta dz.
    Derivative inputs are read off the field's ``surface_jet`` j on the
    grid's (theta, z) nodes.
    """
    grid = replace(grid, r_nodes=np.ones(1), r_weights=np.ones(1))
    q0_parts = {
        "trace": grid.integrate((j["ft_t"] + j["fz_z"] + j["fr"]) ** 2),
        "hoop": grid.integrate((j["ft_t"] + j["fr"]) ** 2),
        "axial": grid.integrate(j["fz_z"] ** 2),
        "shear": grid.integrate((j["ft_z"] + j["fz_t"]) ** 2),
    }
    q1star_core = grid.integrate((j["fr_tt"] + j["fr_zz"]) ** 2)
    B = grid.integrate(j["fr_z"] ** 2)
    return q0_parts, q1star_core, B


def combine_q(parts, Lambda):
    """Q0 or Q1 from its trace, hoop, axial and shear parts: weights Lambda, 2, 2, 1."""
    return (Lambda * parts["trace"] + 2.0 * parts["hoop"]
            + 2.0 * parts["axial"] + parts["shear"])


def functional_family(field, material, geometry, grid):
    """The buckling-equivalent functional family {K, K1, K0, K*} on one field.

    K  = S / C under perfect axial compression (C >= ||u_r,z||^2 > 0 there);
    K1 = S / ||u_r,z||^2;
    K0 = (flat-measure integral of (L0 E(u), E(u))) / ||u_r,z||^2, where E is
         the symmetrized simplified gradient;
    K* = mu (Q0 + h^2/12 Q1*) / B from the field's mid-surface profiles.

    Every integral uses ``grid``'s own rules: the flat measure dr dtheta dz
    as the volume measure of the density divided by r, and K*'s reduced
    forms on its theta and z rules at r = 1.  The gradient and the reduced
    forms read one surface jet, so each profile derivative is evaluated once.
    K* reads h from geometry, the integrals read I_h from the grid, so the
    grid's radial weights must sum to geometry.h to rounding (4 eps); a grid
    on another shell is a ParameterError.
    """
    width = float(grid.r_weights.sum())
    if not abs(width - geometry.h) <= 4.0 * np.finfo(float).eps:
        raise ParameterError(f"grid's radial weights sum to {width!r}, not the "
                             f"thickness h = {geometry.h!r}")
    j = surface_jet(field, grid.TH, grid.Z)
    g = cylindrical_gradient(jet_partials(j, grid.R, grid.TH, grid.Z), grid.R)
    sc = _stability_compressiveness(g, perfect_stress(), material, grid)
    urz_sq = grid.norm_sq(g["rz"])
    if urz_sq <= 0.0:
        raise NotDestabilizingError("||u_r,z||^2 = 0: K1/K0 undefined")

    E = symmetrize(simplified_G(g, grid.R))
    K0_num = grid.integrate(stability_integrand(material, E) / grid.R)

    q0p, q1s_core, B = reduced_surface_forms(j, grid)
    Q0 = combine_q(q0p, material.Lambda)
    Q1star = (material.Lambda + 2.0) * q1s_core
    return {
        "K": sc.ratio,
        "K1": sc.S / urz_sq,
        "K0": K0_num / urz_sq,
        "Kstar": material.mu * (Q0 + geometry.h**2 / 12.0 * Q1star) / B,
        "S": sc.S,
        "C": sc.C,
        "Q0": Q0,
        "Q1star": Q1star,
        "B": B,
    }
