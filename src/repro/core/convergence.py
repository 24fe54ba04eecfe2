"""Convergence measurement and the gamma regression of Section 5.1.

The paper measures convergence as the Euclidean distance between the current
load assignment and the TLB one produced by WebFold, and then fits a bounding
function of the form ``a * gamma**t`` to the distance series using nonlinear
regression (the authors used S-PLUS; we use :mod:`scipy.optimize`, which
minimizes the same sum of squared residuals).  For a random tree of depth 9
the paper reports ``gamma = 0.830734`` with standard error ``0.005786``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["GammaFit", "fit_gamma", "empirical_rate", "halving_time"]


@dataclass(frozen=True)
class GammaFit:
    """Result of fitting ``distance(t) ~= a * gamma**t``.

    Attributes
    ----------
    gamma:
        The per-iteration contraction factor (the paper's ``gamma``).
    a:
        The fitted initial amplitude.
    gamma_stderr / a_stderr:
        Standard errors from the estimated covariance of the fit.
    r_squared:
        Coefficient of determination of the fit on the raw series.
    iterations:
        Number of points used.
    """

    gamma: float
    a: float
    gamma_stderr: float
    a_stderr: float
    r_squared: float
    iterations: int

    def describe(self) -> str:
        return (
            f"gamma = {self.gamma:.6f} (stderr {self.gamma_stderr:.6f}), "
            f"a = {self.a:.4g}, R^2 = {self.r_squared:.4f}, n = {self.iterations}"
        )


def _exp_model(t: np.ndarray, a: float, gamma: float) -> np.ndarray:
    return a * np.power(gamma, t)


def fit_gamma(distances: Sequence[float], drop_zeros: bool = True) -> GammaFit:
    """Fit ``a * gamma**t`` to a distance series by nonlinear least squares.

    Parameters
    ----------
    distances:
        ``distances[t]`` is the Euclidean distance to the target after
        iteration ``t`` (``t = 0`` is the initial distance).
    drop_zeros:
        Trailing exact zeros (converged-to-machine-precision tail) carry no
        information about the rate and destabilize the fit; they are dropped
        by default.

    Returns
    -------
    GammaFit

    Raises
    ------
    ValueError
        If fewer than three usable points remain.
    """
    ys = [float(d) for d in distances]
    if drop_zeros:
        while ys and ys[-1] <= 0.0:
            ys.pop()
    if len(ys) < 3:
        raise ValueError(f"need at least 3 positive points to fit, got {len(ys)}")

    t = np.arange(len(ys), dtype=float)
    y = np.asarray(ys, dtype=float)

    # Linear regression on log(y) provides the starting point; the nonlinear
    # refinement then minimizes squared residuals on the *raw* scale, exactly
    # like the paper's S-PLUS objective.
    positive = y > 0
    slope, intercept = np.polyfit(t[positive], np.log(y[positive]), 1)
    gamma0 = float(np.clip(math.exp(slope), 1e-6, 0.999999))
    a0 = float(math.exp(intercept))

    # Imported here, not at module load: only the gamma fit needs SciPy,
    # and ``import repro`` (hence every serve/ctl child) must not pay for it.
    from scipy.optimize import curve_fit

    params, covariance = curve_fit(
        _exp_model,
        t,
        y,
        p0=(a0, gamma0),
        bounds=((0.0, 0.0), (np.inf, 1.0)),
        maxfev=20_000,
    )
    a, gamma = float(params[0]), float(params[1])
    if covariance is None or not np.all(np.isfinite(covariance)):
        a_err = gamma_err = float("nan")
    else:
        a_err = float(math.sqrt(max(covariance[0, 0], 0.0)))
        gamma_err = float(math.sqrt(max(covariance[1, 1], 0.0)))

    fitted = _exp_model(t, a, gamma)
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    return GammaFit(
        gamma=gamma,
        a=a,
        gamma_stderr=gamma_err,
        a_stderr=a_err,
        r_squared=r2,
        iterations=len(ys),
    )


def empirical_rate(distances: Sequence[float]) -> float:
    """Geometric-mean per-iteration contraction over the positive prefix.

    A model-free companion to :func:`fit_gamma`:
    ``(d_T / d_0) ** (1/T)`` over the longest prefix of strictly positive
    distances.
    """
    ys = [float(d) for d in distances]
    prefix = []
    for d in ys:
        if d <= 0:
            break
        prefix.append(d)
    if len(prefix) < 2:
        raise ValueError("need at least 2 positive leading distances")
    steps = len(prefix) - 1
    return (prefix[-1] / prefix[0]) ** (1.0 / steps)


def halving_time(gamma: float) -> float:
    """Iterations needed to halve the distance at contraction rate gamma."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    return math.log(0.5) / math.log(gamma)
