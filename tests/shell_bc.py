"""Boundary-tag check of a U(f) shell field by sampling, shared by the tests."""

import numpy as np

from cylshell.errors import ParameterError, ShapeError
from cylshell.fields import _gauss


def verify_bc(field, geometry):
    """Check the field's boundary tag by sampling; returns True or raises.

    Each edge is sampled on 8 x 8 (r, theta) points; the tolerance is 1e-10
    relative to the field's largest sampled value.
    """
    tag = field.bc_tag
    if tag is None:
        return True
    a, b = geometry.I_h
    L = geometry.L
    tol = 1e-10
    rs = np.linspace(a, b, 8)
    ths = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    R, TH = np.meshgrid(rs, ths, indexing="ij")
    # field scale for a relative tolerance
    samples = [field.partials(R, TH, z0) for z0 in np.linspace(0.0, L, 9)]
    scale = max(float(np.max(np.abs(p[c]))) for p in samples for c in ("ur", "ut", "uz"))
    scale = max(scale, 1e-300)
    for z0, p in ((0.0, samples[0]), (L, samples[-1])):
        for c, name in (("ur", "u_r"), ("ut", "u_theta")):
            err = float(np.max(np.abs(p[c])))
            if err > tol * scale:
                raise ShapeError(f"{name} != 0 at z={z0}: max |{name}| = {err:.3e}")
    # zero mean of u_z over the bottom annulus
    rq, rwq = _gauss(a, b, 6)
    tq = np.arange(64) * (2.0 * np.pi / 64)
    vals = field.partials(rq[:, None], tq[None, :], 0.0)["uz"]
    mean = float(np.sum((rwq * rq)[:, None] * vals) * (2.0 * np.pi / 64))
    if abs(mean) > tol * scale * (2.0 * np.pi * geometry.h):
        raise ShapeError(f"u_z has nonzero bottom average {mean:.3e}")
    if tag == "fixed_bottom":
        err = float(np.max(np.abs(samples[0]["uz"])))
        if err > tol * scale:
            raise ShapeError(f"u_z != 0 at z=0: max = {err:.3e}")
    elif tag != "average_top":
        raise ParameterError(f"unknown bc tag {tag!r}")
    return True
