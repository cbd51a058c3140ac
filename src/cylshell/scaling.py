"""Log-log power-law fitting for h-sweeps."""

from dataclasses import dataclass

import numpy as np

from cylshell.errors import ParameterError


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit value ~ prefactor * h**exponent."""

    exponent: float
    prefactor: float
    max_residual: float


def fit_exponent(points, min_points=4):
    """Fit a power law to (h, value) pairs by least squares in log-log space.

    max_residual is the largest absolute residual of log(value) against the fit.
    It needs max(min_points, 2) points of distinct h: one point has no slope.
    """
    pts = [(float(h), float(v)) for h, v in points]
    if len(pts) < max(min_points, 2):
        raise ParameterError(f"need at least {max(min_points, 2)} points, got {len(pts)}")
    hs, vs = np.array(pts).T
    if np.any(hs <= 0) or len(set(hs)) != len(hs):
        raise ParameterError("h values must be positive and distinct")
    if np.any(vs <= 0):
        raise ParameterError("values must be positive for a log-log fit")
    slope, intercept = np.polyfit(np.log(hs), np.log(vs), 1)
    resid = np.log(vs) - (slope * np.log(hs) + intercept)
    return ScalingFit(exponent=float(slope), prefactor=float(np.exp(intercept)),
                      max_residual=float(np.max(np.abs(resid))))
