"""Weibull and power-law fitting by maximum likelihood.

Lifetimes and like/repost tallies coming out of the simulator (and their
real-network counterparts) are fitted with a two-parameter Weibull
density; citation counts of linked resources are fitted with a discrete
power law.  Both fitters are maximum-likelihood and report a
goodness-of-fit measure so empirical series can be compared against a
model baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "WeibullFit",
    "PowerLawFit",
    "ConvergenceError",
    "weibull_pdf",
    "weibull_cdf",
    "powerlaw_cdf",
    "fit_weibull_mle",
    "fit_powerlaw_mle",
    "fit_exponential_tail",
    "ks_statistic",
    "emit_pdf_points",
]

MIN_SAMPLES = 10

# Natural log of the largest float.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# k-solver bracket; the stationarity residual is increasing in k, so a
# sign change inside this interval pins the root.
_K_LO = 1e-3
_K_HI = 1e3
# The shape solver stops once |residual| < _K_TOL, or fails after _K_MAX_ITER steps.
_K_TOL = 1e-9
_K_MAX_ITER = 200


class ConvergenceError(RuntimeError):
    """Raised when the shape solver fails; carries the last iterate."""

    def __init__(self, message: str, last_k: float):
        super().__init__(message)
        self.last_k = last_k


@dataclass(frozen=True)
class WeibullFit:
    """Fitted Weibull shape/scale with likelihood and KS distance."""

    k: float
    lam: float
    log_likelihood: float
    n_samples: int
    ks_statistic: float


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted power-law exponent for the tail x >= xmin."""

    alpha: float
    xmin: int
    log_likelihood: float
    n_tail: int


def weibull_pdf(x: float, k: float, lam: float) -> float:
    """Weibull density (k/lam)(x/lam)^(k-1) exp(-(x/lam)^k); 0 for x < 0.

    At x == 0 the density is 0 for k > 1, 1/lam for k == 1 and infinite
    for k < 1.
    """
    if k <= 0 or lam <= 0:
        raise ValueError(f"shape and scale must be positive, got k={k}, lam={lam}")
    if x < 0:
        return 0.0
    if x == 0:
        if k > 1:
            return 0.0
        if k == 1:
            return 1.0 / lam
        return math.inf
    z = x / lam
    try:
        density = (k / lam) * z ** (k - 1.0) * math.exp(-(z**k))
    except (OverflowError, ZeroDivisionError):  # a power beyond the float range
        density = math.nan
    if math.isfinite(density):
        return density
    # A factor left the float range.  In logs the density is
    # log k - log lam + (k - 1) log z - z^k, with log z = log x - log lam.
    log_z = math.log(x) - math.log(lam)
    if k * log_z > _LOG_FLOAT_MAX:
        return 0.0  # z^k beyond the float range outweighs every other term
    try:
        return math.exp(math.log(k) - math.log(lam) + (k - 1.0) * log_z - math.exp(k * log_z))
    except OverflowError:
        return math.inf


def weibull_cdf(x: float, k: float, lam: float) -> float:
    """Weibull distribution function 1 - exp(-(x/lam)^k); 0 for x <= 0."""
    if k <= 0 or lam <= 0:
        raise ValueError(f"shape and scale must be positive, got k={k}, lam={lam}")
    if x <= 0:
        return 0.0
    try:
        return 1.0 - math.exp(-((x / lam) ** k))
    except OverflowError:  # (x / lam)^k beyond the float range
        return 1.0


def powerlaw_cdf(x: float, alpha: float, xmin: float) -> float:
    """Continuous-approximation power-law CDF on [xmin - 0.5, inf)."""
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    x0 = xmin - 0.5
    if x0 <= 0:
        raise ValueError(f"xmin must exceed 0.5, got {xmin}")
    if x <= x0:
        return 0.0
    return 1.0 - (x / x0) ** (1.0 - alpha)


def _weibull_residual(k: float, log_x: np.ndarray, mean_log: float) -> tuple[float, float]:
    """The shape equation's residual at ``k`` and its slope d residual / dk."""
    # Scale-invariant form: weights (x/max)^k avoid overflow for large k.
    w = np.exp(k * (log_x - log_x.max()))
    total = w.sum()
    resid = float(np.dot(w, log_x) / total - 1.0 / k - mean_log)
    # The slope is the weighted variance of log x + 1/k^2 > 0.
    w = w / total
    m = float(np.dot(w, log_x))
    var = float(np.dot(w, (log_x - m) ** 2))
    return resid, var + 1.0 / (k * k)


def fit_weibull_mle(samples: Sequence[float] | np.ndarray) -> WeibullFit:
    """Fit shape and scale to positive samples by maximum likelihood.

    The shape k solves the profile stationarity equation

        sum(x^k ln x) / sum(x^k) - 1/k - mean(ln x) = 0

    by damped Newton iteration (initial guess 1.2 / std(ln x), bisection
    fallback on [1e-3, 1e3]) until the residual is below 1e-9; the
    scale is then lam = (mean(x^k))^(1/k).

    Raises ``ValueError`` on fewer than 10 samples or any non-positive
    sample, ``ConvergenceError`` (carrying the last iterate) when no
    finite shape satisfies the equation, e.g. for zero-variance input.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    if x.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {x.size}")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("all samples must be positive and finite")

    log_x = np.log(x)
    mean_log = float(log_x.mean())
    sd_log = float(log_x.std())
    if sd_log == 0.0:
        raise ConvergenceError(
            "zero-variance sample has no finite shape MLE", last_k=math.inf
        )

    k = min(max(1.2 / sd_log, _K_LO), _K_HI)
    lo, hi = _K_LO, _K_HI
    resid, slope = _weibull_residual(k, log_x, mean_log)
    for _ in range(_K_MAX_ITER):
        if abs(resid) < _K_TOL:
            break
        # Maintain the bracket around the root (residual increases in k).
        if resid < 0:
            lo = max(lo, k)
        else:
            hi = min(hi, k)
        k_next = k - resid / slope
        if not (lo < k_next < hi):
            k_next = 0.5 * (lo + hi)
        k = k_next
        resid, slope = _weibull_residual(k, log_x, mean_log)
    else:
        raise ConvergenceError(
            f"shape solver did not reach |residual| < {_K_TOL} in {_K_MAX_ITER} iterations",
            last_k=k,
        )

    # lam in the same scale-safe form: lam = xmax * mean((x/xmax)^k)^(1/k)
    xmax = float(x.max())
    w = np.exp(k * (log_x - math.log(xmax)))
    lam = xmax * float(w.mean()) ** (1.0 / k)

    z = np.exp(k * (log_x - math.log(lam)))
    log_likelihood = float(
        x.size * (math.log(k) - k * math.log(lam)) + (k - 1.0) * log_x.sum() - z.sum()
    )
    ks = ks_statistic(x, lambda v: weibull_cdf(v, k, lam))
    return WeibullFit(
        k=k,
        lam=lam,
        log_likelihood=log_likelihood,
        n_samples=int(x.size),
        ks_statistic=ks,
    )


def fit_powerlaw_mle(samples: Iterable[int], xmin: int = 1) -> PowerLawFit:
    """Fit the tail exponent of a discrete power law for x >= xmin.

    Uses the continuous-approximation MLE

        alpha = 1 + n_tail / sum(ln(x_i / (xmin - 0.5)))

    over the tail samples; the reported log-likelihood is for the tail
    under the matching continuous-approximation density.
    """
    if xmin < 1:
        raise ValueError(f"xmin must be a positive integer, got {xmin}")
    tail = []
    for s in samples:
        v = int(s)
        if v != s or v < 1:
            raise ValueError(f"samples must be positive integers, got {s!r}")
        if v >= xmin:
            tail.append(v)
    if len(tail) < 2:
        raise ValueError(f"need at least 2 samples >= xmin={xmin}, got {len(tail)}")
    n = len(tail)
    x0 = xmin - 0.5
    log_sum = float(np.log(np.asarray(tail, dtype=float) / x0).sum())
    alpha = 1.0 + n / log_sum
    log_likelihood = n * math.log(alpha - 1.0) - n * math.log(x0) - alpha * log_sum
    return PowerLawFit(alpha=alpha, xmin=xmin, log_likelihood=log_likelihood, n_tail=n)


def fit_exponential_tail(samples: Iterable[int], xmin: int = 1) -> tuple[float, float]:
    """MLE exponential rate and log-likelihood on the tail x >= xmin.

    Fits f(x) = rate * exp(-rate (x - (xmin - 0.5))) on the same support
    as the power-law tail so the two log-likelihoods are comparable.
    """
    x0 = xmin - 0.5
    tail = [float(s) for s in samples if s >= xmin]
    if len(tail) < 2:
        raise ValueError(f"need at least 2 samples >= xmin={xmin}, got {len(tail)}")
    n = len(tail)
    excess = sum(tail) / n - x0
    rate = 1.0 / excess
    log_likelihood = n * math.log(rate) - rate * n * excess
    return rate, log_likelihood


def ks_statistic(
    samples: Sequence[float] | np.ndarray,
    cdf: Callable[[float], float],
) -> float:
    """Supremum distance between the empirical CDF and ``cdf``.

    ``cdf`` is evaluated once per distinct sample value; tied samples
    share the value's float."""
    values, counts = np.unique(np.asarray(samples, dtype=float), return_counts=True)
    n = int(counts.sum())
    if n == 0:
        raise ValueError("need at least 1 sample")
    f = np.repeat([cdf(v) for v in values], counts)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def emit_pdf_points(
    fit: WeibullFit,
    x_max: float,
    n_points: int,
) -> list[tuple[float, float]]:
    """Evenly spaced (x, pdf) pairs on [0, x_max] for external plotting."""
    if n_points < 2:
        raise ValueError(f"need at least 2 points, got {n_points}")
    if not 0 < x_max < math.inf:
        raise ValueError(f"x_max must be positive and finite, got {x_max}")
    xs = np.linspace(0.0, x_max, n_points)
    return [(float(x), weibull_pdf(float(x), fit.k, fit.lam)) for x in xs]
