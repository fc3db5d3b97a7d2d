"""Gaussian mixture density machinery.

Components are diagonal-covariance Gaussians: within a component the d
feature dimensions are independent, so a component's log-density is the sum
of per-dimension univariate log-densities

    log N(x | m, v) = -1/2 log(2 pi v) - (x - m)^2 / (2 v)

and the mixture log-density is a log-sum-exp over components of
log(weight_k) + component log-density. All arithmetic stays in log space:
a 10-dimensional density product underflows double precision exactly for
the outliers the decision engine must rank, so raw densities are never
materialized here.

Fitting maximizes the data log-likelihood with expectation-maximization.
The E-step computes responsibilities r[i,k] = P(component k | x_i); the
M-step re-estimates weights, means, and variances from the weighted data.
Each full iteration cannot decrease the log-likelihood; a decrease beyond
slack is reported as an internal error rather than papered over.

The mixture is three arrays: weights (K,), means M (K, d), variances (K, d).
An EM iteration is two BLAS products with the (2d, N) stack of x*x and x,
built once per fit. With P = 1/var the E-step expands the quadratic, as
scikit-learn's ``_estimate_log_gaussian_prob`` does for diagonal covariances,

    sum_j (x_j - m_j)^2 P_j = (x*x) @ P.T - 2 x @ (M*P).T + sum_j m_j^2 P_j

and the M-step takes variances as mean(x*x) - mean(x)^2. Both cancel: the
absolute error is a few ulps of (x^2 + 2|x m| + m^2) P, or of mean(x*x),
not of (x - m)^2 P. On z-scored features that stays under the 1e-9
monotonicity slack (1e-10 in mean log-likelihood on the benchmark's 39,000
training records), and a variance is off by 4e-9 at |mean| = 1e3, under a
tenth of the floor. Unscaled data with a tight component at |x| ~ 1e4 can
trip the monotonicity check: fit standardized features. Scoring keeps the
centred form, whose elementwise operations give a record the same score
bits in any batch (a one-row BLAS product takes another kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

#: Floor applied to component variances (on delta^2).
VARIANCE_FLOOR = 1e-6

#: Tolerance on the mixture-weight simplex: weights must sum to 1 this tightly.
SIMPLEX_TOL = 1e-12

#: Slack allowed on the per-iteration log-likelihood monotonicity guarantee.
MONOTONE_SLACK = 1e-9

#: A component whose responsibility mass falls below this fraction of N is
#: considered empty and gets reseeded at the lowest-density record.
EMPTY_MASS_FRACTION = 1e-10


class GmmError(Exception):
    pass


class EmDivergenceError(GmmError):
    """The log-likelihood decreased across an EM iteration: internal bug."""


@dataclass(frozen=True)
class MixtureModel:
    """K weighted diagonal Gaussians over d dimensions, stored as arrays."""

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, d)
    variances: np.ndarray  # (K, d), diagonal covariances, floored

    def __post_init__(self):
        k = self.weights.shape[0] if self.weights.ndim == 1 else 0
        if k < 1 or self.means.ndim != 2 or self.means.shape[0] != k:
            raise GmmError("weights and means disagree on K")
        if self.means.shape != self.variances.shape:
            raise GmmError(f"inconsistent component shapes: {self.means.shape} vs {self.variances.shape}")
        if np.any(self.variances < VARIANCE_FLOOR * (1 - 1e-12)):
            raise GmmError(f"component variance below floor {VARIANCE_FLOOR}")
        if np.any(self.weights < 0):
            raise GmmError("mixture weights must be non-negative")
        if abs(float(self.weights.sum()) - 1.0) > SIMPLEX_TOL:
            raise GmmError(f"mixture weights sum to {self.weights.sum()!r}, not 1")

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class EmConfig:
    n_components: int
    max_iter: int = 200
    tol: float = 1e-6  # relative log-likelihood improvement threshold
    seed: int = 0
    variance_floor: float = VARIANCE_FLOOR

    def __post_init__(self):
        if self.n_components < 1:
            raise GmmError("n_components must be >= 1")
        if self.max_iter < 1:
            raise GmmError("max_iter must be >= 1")
        if self.tol <= 0:
            raise GmmError("tol must be positive")
        if self.variance_floor <= 0:
            raise GmmError("variance_floor must be positive")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one EM fit. The trace holds mean log-likelihood per pass."""

    iterations: int
    final_log_likelihood: float  # per-record average
    converged: bool
    trace: tuple[float, ...]
    reseeds: int = 0


def _log_weights(weights: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):  # zero weights contribute -inf terms
        return np.log(weights)


def _expanded_log_terms(feats, logw, means, variances) -> np.ndarray:
    """(K, N) array of log(weight_k) + component log-density, expanded form.
    ``feats`` stacks (x*x).T over x.T, so one product gives the x terms."""
    prec = 1.0 / variances
    mp = means * prec
    const = logw - 0.5 * (
        means.shape[1] * LOG_2PI + np.sum(np.log(variances), axis=1) + np.sum(means * mp, axis=1)
    )
    terms = np.hstack([-0.5 * prec, mp]) @ feats
    terms += const[:, None]
    return terms


def _m_step(resp, mass, feats, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """(K, d) means and floored variances from (K, N) responsibilities whose
    per-component totals are ``mass``; ``feats`` is as for the E-step. Empty
    components get finite rows, which the caller reseeds."""
    d = feats.shape[0] // 2
    denom = np.maximum(mass, EMPTY_MASS_FRACTION * feats.shape[1])[:, None]
    moments = (resp @ feats.T) / denom  # (K, 2d): weighted means of x*x, then of x
    means = moments[:, d:].copy()
    return means, np.maximum(moments[:, :d] - means * means, floor)


#: Shifted log terms are clamped here before exp(). Lower values would give
#: subnormal results, which exp() computes many times slower, and nothing
#: below exp(-700) ~ 1e-304 can change a sum that holds exp(0) = 1.
_EXP_FLOOR = -700.0


def _log_normalize(terms: np.ndarray, posterior: bool = True) -> np.ndarray:
    """Per-record log-sum-exp over the components (axis 0) of (K, N) log
    terms, max-shifted so it never overflows; records with no finite term
    give -inf. Overwrites ``terms``: with ``posterior``, with the posterior
    exp(terms - result) of every record whose result is finite."""
    shift = np.max(terms, axis=0)
    finite = np.isfinite(shift)
    if not finite.all():
        out = np.full(shift.shape, -np.inf)
        if finite.any():
            part = terms[:, finite]
            out[finite] = _log_normalize(part, posterior)
            terms[:, finite] = part
        return out
    terms -= shift
    np.maximum(terms, _EXP_FLOOR, out=terms)
    np.exp(terms, out=terms)
    total = terms[0].copy()
    for row in terms[1:]:  # in turn for every N: np.sum adds one record's (K, 1) terms pairwise
        total += row
    if posterior:
        terms /= total
    return shift + np.log(total)


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over axis 0 of ``terms`` (d, ...), which it overwrites, with
    the bits of ``np.sum`` along a contiguous axis of d values. numpy's
    pairwise order adds fewer than 8 values in turn; up to 128 in 8 running
    sums r, as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in turn;
    and more as the sum of two halves split at a multiple of 8."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    out, rest = terms[0], max(n - n % 8, 1)
    if n >= 8:
        for j in range(8, rest, 8):
            terms[:8] += terms[j : j + 8]
        pairs = terms[0:8:2] + terms[1:8:2]
        out = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    for term in terms[rest:]:
        out += term
    return out


_SCORE_CHUNK = 1024


def score_records(data: np.ndarray, model: MixtureModel) -> np.ndarray:
    """Mixture log-density of every row of ``data``; shape (N,).

    Each row's value depends only on that row, so scores are identical no
    matter how the data is batched or partitioned. The centred terms
    (x_j - m_kj)^2 / v_kj of a chunk of m rows are built on x.T, as (d, K,
    m), and summed over j with the bits of ``np.sum`` over the last axis of
    the (K, m, d) broadcasting form.
    """
    xt = np.ascontiguousarray(_as_matrix(data, model.d).T)  # (d, N)
    logw = _log_weights(model.weights)[:, None]
    base = model.d * LOG_2PI + np.sum(np.log(model.variances), axis=1)[:, None]  # (K, 1)
    means, variances = model.means.T[:, :, None], model.variances.T[:, :, None]  # (d, K, 1)
    out = np.empty(xt.shape[1])
    for start in range(0, len(out), _SCORE_CHUNK):
        terms = xt[:, None, start : start + _SCORE_CHUNK] - means
        terms *= terms
        terms /= variances
        out[start : start + _SCORE_CHUNK] = _log_normalize(logw + -0.5 * (base + _pairwise_sum(terms)), posterior=False)
    return out


def _as_matrix(data: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != d:
        raise GmmError(f"data has shape {x.shape}, model expects (N, {d})")
    return x


def _farthest_point_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy seeding: random first record, then repeatedly the record
    farthest from the chosen set. Deterministic under a fixed generator."""
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    min_d2 = np.sum((x - x[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        d2 = np.sum((x - x[nxt]) ** 2, axis=1)
        min_d2 = np.minimum(min_d2, d2)
    return x[chosen].copy()


def fit_em(
    data: np.ndarray,
    cfg: EmConfig,
    *,
    on_m_step: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[MixtureModel, FitReport]:
    """Maximum-likelihood fit of a K-component mixture via EM.

    Initialization is seeded farthest-point: means start at well-spread
    records, variances at the global per-column variance, weights uniform.
    Stops when the relative improvement of the mean log-likelihood drops
    below ``cfg.tol`` or after ``cfg.max_iter`` iterations. Identical
    (data, cfg) inputs produce bitwise-identical models.

    ``on_m_step`` is called as ``on_m_step(iteration, weights)`` right after
    each M-step, mainly so tests can audit the weight simplex.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise GmmError(f"training data must be 2-d, got shape {x.shape}")
    n, d = x.shape
    k = cfg.n_components
    if n < k:
        raise GmmError(f"need at least as many records as components: N={n} < K={k}")

    floor = cfg.variance_floor
    rng = np.random.default_rng(cfg.seed)
    global_var = np.maximum(x.var(axis=0), floor)

    means = _farthest_point_means(x, k, rng)
    variances = np.tile(global_var, (k, 1))
    weights = np.full(k, 1.0 / k)

    # x*x and x, transposed to (2d, N) once: both steps are one product with
    # it, and the (K, N) terms reduce over K along contiguous rows.
    feats = np.ascontiguousarray(np.hstack([x * x, x]).T)

    def e_step():
        """Per-record log-likelihood (N,) and responsibilities (K, N)."""
        resp = _expanded_log_terms(feats, _log_weights(weights), means, variances)
        return _log_normalize(resp), resp

    lse, resp = e_step()
    ll = float(np.mean(lse))
    trace = [ll]
    converged = False
    reseeds = 0
    iterations = 0

    for it in range(1, cfg.max_iter + 1):
        mass = resp.sum(axis=1)  # (K,)
        empty = np.flatnonzero(mass < EMPTY_MASS_FRACTION * n)
        reseeded_now = empty.size > 0
        raw_weights = mass / n
        new_means, new_vars = _m_step(resp, mass, feats, floor)
        if reseeded_now:
            # Reseed dead components at the records the mixture explains worst.
            order = np.argsort(lse)
            for slot, i in enumerate(empty):
                new_means[i] = x[order[min(slot, n - 1)]]
                new_vars[i] = global_var
                raw_weights[i] = 1.0 / k
            reseeds += empty.size
        weights = raw_weights / raw_weights.sum()
        means, variances = new_means, new_vars
        iterations = it
        if on_m_step is not None:
            on_m_step(it, weights.copy())

        lse, resp = e_step()
        new_ll = float(np.mean(lse))
        trace.append(new_ll)

        if reseeded_now:
            # A reseed is not an EM update; the monotonicity guarantee and
            # the convergence comparison restart from the new parameters.
            ll = new_ll
            continue
        if new_ll < ll - MONOTONE_SLACK:
            raise EmDivergenceError(
                f"log-likelihood decreased at iteration {it}: {ll!r} -> {new_ll!r}"
            )
        improvement = new_ll - ll
        rel = improvement / max(abs(ll), 1e-300)
        ll = new_ll
        if rel < cfg.tol:
            converged = True
            break

    report = FitReport(
        iterations=iterations,
        final_log_likelihood=ll,
        converged=converged,
        trace=tuple(trace),
        reseeds=reseeds,
    )
    return MixtureModel(weights, means, variances), report
