"""Constructive stability machinery for the n-point quadratic equation.

If the twisted residual of f is dominated by a control phi, the direct
method builds the nearby exact solution as a limit of rescaled iterates,
with an a-priori error bound built from phi.  The library audits two controls
only: the power budget eps sum_i ||x_i||^r and the constant budget theta.
Norms are QuasiNormSpec values; None means `point_norm` on the domain and
`value_norm` on the codomain.  The power weight sum_i ||x_i||^r is written
once, `_power_weights`, for phi, the bound, the fit of eps and the consistency
check, and the fits and the check reduce whole blocks of
`mappings._residual_blocks`.  That sampler reads two streams: a block's
points from default_rng(seed), and its fe3 unitaries from a child stream of
that seed; `verify_unitary_covariance` draws its own unitaries from a second
child.  One bound engine on blocks of points, `_bounds`, sits under
`bound` (a block of one), `series_bound_*`, `closed_form_bounds` and
`probe_bound`; its series terms read phi through the closed form `phi_cap`.
`probe_bound` gives each probe the exact sum; the truncated series is its test
reference.  `stabilize` makes one
`probe_bound` call on its probe block, and it and `verify_unitary_covariance`
(under its fitted constant budget) make one `hyers_iterate` call per level of
probes or block of unitaries x probes.  `_check_scheme` checks n >= 3 and the
direction for all of them, and `_check_origin` f(0) = 0 for the backward scheme.

Conventions:
  forward scheme    iterate_m(x) = g((n-1)^m x) / (n-1)^{2m},
                    g = f + (n-1) f(0) / 2; deviations are reported against g
  backward scheme   iterate_m(x) = (n-1)^{2m} f(x / (n-1)^m); needs f(0) = 0
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import (QuasiNormSpec, _magnitudes, _norms, _scalar_pow, act_block, codomain_norms,
                      conjugate_block, coordinate_magnitudes, l1, norm_eval)
from .equations import EquationSpec, block_length, term_sum
# approximate_remainder and norm_eval are no longer called here; they stay importable
# from this namespace because bench/spans.py wraps them here by name
from .mappings import (Mapping, NonFiniteResidualError, _draw_unitaries, _residual_blocks,
                       approximate_remainder, empirical_sup_residual)

MAX_SERIES_TERMS = 100_000
CONTROL_VARIANTS = ("power", "constant")  # also the scenario schema's control.variant enum
SCALE_GUARD = 1e100


class DivergenceError(ValueError):
    """The requested bound's series does not converge for these parameters."""

    def __init__(self, message: str, diagnosis: str | None = None):
        super().__init__(message if diagnosis is None else f"{message} ({diagnosis})")
        self.diagnosis = diagnosis


class OpenProblemError(DivergenceError):
    """Parameters in the dead zone where no scheme is guaranteed to work."""

    tag = "open-problem region"

    def __init__(self, message: str, diagnosis: str | None = None):
        super().__init__(f"{self.tag}: {message}", diagnosis=diagnosis)


def point_norm(x) -> float:
    """Default domain norm: Euclidean aggregate of coordinate magnitudes."""
    return float(_norms(None, coordinate_magnitudes(x)))


def _power_weights(norm: QuasiNormSpec | None, mags, r: float) -> np.ndarray:
    """sum_i ||x_i||^r of B tuples from their coordinate magnitudes (B, n, d), added in slot order.

    norm None is `point_norm`.  The powers are `_scalar_pow`'s, and a power out of
    floating-point range is inf.
    """
    with np.errstate(over="ignore"):
        return term_sum(_scalar_pow(_norms(norm, mags), r))


@dataclass(frozen=True)
class ControlFunction:
    """Perturbation budget phi on n-tuples of domain points.

    power    phi(xs) = epsilon * sum_i ||x_i||^r
    constant phi(xs) = theta

    Only a power budget measures points, so only it takes a `norm`.
    """

    variant: str
    epsilon: float = 0.0
    r: float = 1.0
    theta: float = 0.0
    norm: QuasiNormSpec | None = None  # domain norm of the power budget; None is point_norm

    def __post_init__(self):
        if self.variant not in CONTROL_VARIANTS:
            raise ValueError(f"unknown control variant {self.variant!r}")
        if self.variant == "power" and (self.epsilon < 0 or self.r <= 0):
            raise ValueError("power control needs epsilon >= 0 and r > 0")
        if self.variant == "constant" and self.theta < 0:
            raise ValueError("constant control needs theta >= 0")
        if self.norm is not None and not isinstance(self.norm, QuasiNormSpec):
            raise TypeError("the control's norm is a QuasiNormSpec or None")
        if self.norm is not None and self.variant != "power":
            raise ValueError("only a power control measures points with a norm")

    def evaluate(self, xs) -> float:
        """phi of one tuple of points."""
        if self.variant == "constant":
            return self.theta
        mags = np.stack([coordinate_magnitudes(x) for x in xs])[np.newaxis]
        return self.epsilon * float(_power_weights(self.norm, mags, self.r)[0])

    def summary(self) -> dict:
        """The variant and the parameters that a run reports."""
        if self.variant == "power":
            return {"variant": "power", "epsilon": self.epsilon, "r": self.r}
        return {"variant": "constant", "theta": self.theta}


def power(epsilon: float, r: float, norm: QuasiNormSpec | None = None) -> ControlFunction:
    return ControlFunction("power", epsilon=float(epsilon), r=float(r), norm=norm)


def constant(theta: float) -> ControlFunction:
    return ControlFunction("constant", theta=float(theta))


# ---------------------------------------------------------------------------
# derived control quantities


def phi_cap(phi: ControlFunction, n: int, x) -> float:
    """Phi(x) = min over slots of phi_i(-x) + |(n^2+1)-(i+1)n|/n * phi_tilde(x).

    phi_i is phi on the one-hot tuple with x in slot i, and phi_tilde the least
    phi_i(x) + phi_{i+1}(x).  For a power or constant budget every phi_i is phi
    of x alone and phi_tilde twice that, and the weight is least, 1/n, at slot
    i = n-1, so Phi = (1 + 2/n) phi(x).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    return (1.0 + 2.0 / n) * phi.evaluate([x])


# ---------------------------------------------------------------------------
# the bound engine


def _check_scheme(n: int, direction: str) -> None:
    """Refuse what no rescaling scheme takes: n < 3, or a direction other than forward or backward."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be forward or backward")


def _check_origin(f0, direction: str) -> None:
    """Refuse the backward scheme for f with ||f(0)|| > 1e-9: its iterates need f(0) = 0."""
    if direction == "backward" and float(np.linalg.norm(np.atleast_1d(f0))) > 1e-9:
        raise ValueError("the backward scheme needs f(0) = 0")


def power_regime(n: int, K: float, r: float) -> str:
    """Which scheme converges for a power budget: forward, backward, or dead_zone.

    A constant budget is the r = 0 case.
    """
    lam = n - 1.0
    if K * lam ** (r - 2.0) < 1.0:
        return "forward"
    if K * lam ** (2.0 - r) < 1.0:
        return "backward"
    return "dead_zone"


def _require_regime(requested: str, actual: str, detail: str):
    if actual == requested:
        return
    if actual == "dead_zone":
        raise OpenProblemError(f"no convergent scheme: {detail}")
    raise DivergenceError(
        f"the {requested} series diverges for these parameters", diagnosis=f"use the {actual} scheme; {detail}"
    )


def _truncate_geometric(first_term: float, ratio: float, series_tol: float, transform) -> float:
    """Truncated geometric sum, stopped when the transformed tail is below series_tol.

    `transform` maps the partial sum to the reported bound, so the stop rule
    controls the error of the bound itself (matters for the 1/p-th root).  A
    partial sum out of floating-point range is returned at once.
    """
    total = 0.0
    term = first_term
    for _ in range(MAX_SERIES_TERMS):
        total += term
        if not math.isfinite(total):
            return transform(total)
        term *= ratio
        tail = term / (1.0 - ratio)
        if transform(total + tail) - transform(total) < series_tol:
            return transform(total)
    raise DivergenceError("series truncation cap reached", diagnosis=f"ratio={ratio}")


def _degree(phi: ControlFunction) -> float:
    """Homogeneity degree of Phi: r for a power budget, 0 for a constant one."""
    return phi.r if phi.variant == "power" else 0.0


def _term(phi: ControlFunction, n: int, x, i: int, direction: str) -> float:
    """The series term a_i, i >= 0, before its K^(i+1) weight.

    forward   a_i = Phi((n-1)^i x) / (n-1)^{2i}
    backward  a_i = (n-1)^{2(i+1)} Phi(x / (n-1)^{i+1})
    """
    lam = float(n - 1)
    if direction == "forward":
        scale = lam**i
        if scale > SCALE_GUARD:
            raise DivergenceError("argument scale overflow before convergence")
        return phi_cap(phi, n, x * scale) / scale**2
    scale = lam ** (i + 1)
    return scale**2 * phi_cap(phi, n, x / scale)


def bound(phi: ControlFunction, n: int, x, direction: str = "forward", K: float = 1.0,
          p: float = 1.0, series_tol: float | None = None) -> float:
    """The a-priori error bound (n-1)^-2 [sum_{i>=0} (K^(i+1) a_i)^p]^(1/p), a_i as in _term.

    phi is a power or a constant budget, the only controls the library audits.
    K > 1 is the quasi-norm route (modulus K) and p < 1 the p-norm route;
    both are this one series, and K = 1, p = 1 is the normed bound.  With
    series_tol None, the bound is the closed form
    (n+2) K eps ||x||^r / (n [(n-1)^{2p} - K^p (n-1)^{rp}]^{1/p}), a constant
    budget being r = 0 with eps = theta, and the two powers of (n-1) swapped
    for the backward scheme.  With series_tol set, the series is summed until
    the estimated tail moves the bound by less than series_tol.  The stop
    rule compares rounded values and each partial sum rounds, so the truncated
    bound lies below the exact sum by at most series_tol plus about one ulp per
    term summed, and above it by that rounding alone (measured: up to 66 ulps
    below beyond series_tol, and up to 24 ulps above on the p route).

    Raises OpenProblemError in the dead zone, and DivergenceError when the
    requested scheme diverges (always for a constant budget run backward).
    """
    return float(_bounds(phi, n, np.asarray(x)[np.newaxis], direction, K, p, series_tol)[0])


def _bounds(phi: ControlFunction, n: int, X, direction: str, K: float, p: float,
            series_tol: float | None) -> np.ndarray:
    """`bound` at each point of the block X, points stacked on its leading axis.

    The closed form is one array expression on the block; a series is summed
    point by point.  A closed form out of floating-point range is inf or NaN,
    without a warning.
    """
    _check_scheme(n, direction)
    if K < 1.0 or not 0.0 < p <= 1.0 or (K > 1.0 and p < 1.0):
        raise ValueError("need K >= 1 and 0 < p <= 1, and not both K > 1 and p < 1")
    if series_tol is not None and series_tol <= 0:
        raise ValueError("series_tol must be positive")
    lam = float(n - 1)
    pref = 1.0 / lam**2
    root = lambda s: pref * s ** (1.0 / p)
    if phi.variant == "constant" and direction == "backward":
        raise DivergenceError("no backward scheme for a constant budget")
    r = _degree(phi)
    _require_regime(direction, power_regime(n, K, r),
                    f"dead zone is -log_(n-1) K <= r-2 <= log_(n-1) K at K={K}, r={r}, p={p}")
    if series_tol is not None:
        ratio = K**p * lam ** (((r - 2.0) if direction == "forward" else (2.0 - r)) * p)
        return np.array([_truncate_geometric((K * _term(phi, n, x, 0, direction)) ** p, ratio, series_tol,
                                             root) for x in X])
    if X.ndim not in (1, 2, 4):  # blocks of 0-d, 1-d or 3-d points
        raise ValueError("module points are 1-d (scalars) or 3-d (matrix coordinates)")
    a, b = lam ** (2.0 * p), lam ** (r * p)
    if direction == "backward":
        a, b = b, a
    with np.errstate(over="ignore", invalid="ignore"):
        if phi.variant == "constant":
            amp, weight = phi.theta, np.ones(len(X))
        else:  # one slot per point; a 0-d point is one coordinate
            mags = _magnitudes(X, X.ndim == 4).reshape(len(X), 1, -1)
            amp, weight = phi.epsilon, _power_weights(phi.norm, mags, r)
        return (n + 2) * K * amp * weight / (n * (a - K**p * b) ** (1.0 / p))


def series_bound_forward(phi: ControlFunction, n: int, K: float, x,
                         series_tol: float = 1e-12) -> float:
    """K/(n-1)^2 * sum_{i>=0} K^i Phi((n-1)^i x) / (n-1)^{2i}, truncated."""
    return bound(phi, n, x, "forward", K=K, series_tol=series_tol)


def series_bound_backward(phi: ControlFunction, n: int, K: float, x,
                          series_tol: float = 1e-12) -> float:
    """1/(n-1)^2 * sum_{i>=1} K^i (n-1)^{2i} Phi(x / (n-1)^i), truncated."""
    return bound(phi, n, x, "backward", K=K, series_tol=series_tol)


def series_bound_forward_p(phi: ControlFunction, n: int, p: float, x,
                           series_tol: float = 1e-12) -> float:
    """1/(n-1)^2 * [ sum_{i>=0} Phi((n-1)^i x)^p / (n-1)^{2ip} ]^{1/p}, truncated."""
    return bound(phi, n, x, "forward", p=p, series_tol=series_tol)


def series_bound_backward_p(phi: ControlFunction, n: int, p: float, x,
                            series_tol: float = 1e-12) -> float:
    """1/(n-1)^2 * [ sum_{i>=1} (n-1)^{2ip} Phi(x / (n-1)^i)^p ]^{1/p}, truncated."""
    return bound(phi, n, x, "backward", p=p, series_tol=series_tol)


def closed_form_bounds(n: int, variant: str, direction: str, norm_x: float = 1.0,
                       K: float | None = None, p: float | None = None,
                       epsilon: float | None = None, r: float | None = None,
                       theta: float | None = None) -> float:
    """Closed-form bound values for power and constant budgets.

    Pass K for the quasi-norm setting or p for the p-norm setting (exactly
    one).  Parameters in the dead zone, where no scheme converges, raise
    OpenProblemError carrying the tag "open-problem region".
    """
    if (K is None) == (p is None):
        raise ValueError("pass exactly one of K (quasi-norm) or p (p-norm)")
    if variant == "power":
        if epsilon is None or r is None:
            raise ValueError("power budget needs epsilon and r")
        phi = power(epsilon, r, norm=l1(1))  # the l1 norm of the point (norm_x,) is |norm_x|
    elif variant == "constant":
        if theta is None:
            raise ValueError("constant budget needs theta")
        phi = constant(theta)
    else:
        raise ValueError(f"unknown budget variant {variant!r}")
    return bound(phi, n, np.array([norm_x]), direction, K=1.0 if K is None else K,
                 p=1.0 if p is None else p)


def iterate_gap_bound(phi: ControlFunction, n: int, K: float, x, l: int, m: int,
                      direction: str = "forward") -> float:
    """A-priori bound on the distance between the l-th and m-th rescaled iterates.

    (n-1)^-2 [sum_{i=l}^{m-2} K^(i+1-l) a_i + K^(m-1-l) a_{m-1}], a_i as in _term.
    """
    if not 0 <= l < m:
        raise ValueError("need 0 <= l < m")
    _check_scheme(n, direction)
    x = np.asarray(x)
    total = sum(K ** (i + 1 - l) * _term(phi, n, x, i, direction) for i in range(l, m - 1))
    return (total + K ** (m - 1 - l) * _term(phi, n, x, m - 1, direction)) / (n - 1.0) ** 2


# ---------------------------------------------------------------------------
# the direct-method iteration


def hyers_iterate(f: Mapping, n: int, m: int, x, direction: str = "forward"):
    """The m-th iterate of the chosen rescaling scheme at the point x, or at each point of a block.

    A block, shape (B, *f.domain.shape), is told apart from a point by its ndim; a
    point is a block of one.  f(0) is evaluated once and the block in one `f.batch`
    call, so row i of a block's iterates equals the iterate at its point i bit for bit.
    """
    _check_scheme(n, direction)
    if m < 0:
        raise ValueError("m must be >= 0")
    lam = float(n - 1)
    if lam**m > SCALE_GUARD:
        raise ValueError(f"(n-1)^m exceeds the overflow guard {SCALE_GUARD:g}")
    one = np.ndim(x) <= len(f.domain.shape)
    X = f._coerce(x)[np.newaxis] if one else np.asarray(x)
    f0 = np.asarray(f(np.zeros_like(X[0])))
    _check_origin(f0, direction)
    if direction == "forward":
        V = (f.batch(X * lam**m) + (n - 1) / 2.0 * f0) / lam ** (2 * m)
    else:
        V = lam ** (2 * m) * f.batch(X / lam**m)
    return V[0] if one else V


@dataclass(frozen=True)
class StabilityConfig:
    """Settings for a stabilization experiment.

    norm_spec, the codomain quasi-norm, supplies K (bound_mode "quasi") or p
    (bound_mode "p"; p = 1 for genuine norms); domain_norm measures the probes.
    The control is a power or a constant budget, whose bound at each probe is
    the exact sum, so the config sets no series tolerance.
    """

    n: int
    norm_spec: QuasiNormSpec
    direction: str = "forward"
    m_max: int = 40
    tol: float = 1e-9
    probes: tuple = ()
    bound_mode: str = "quasi"
    domain_norm: QuasiNormSpec | None = None

    def __post_init__(self):
        _check_scheme(self.n, self.direction)
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.bound_mode not in ("quasi", "p"):
            raise ValueError("bound_mode must be quasi or p")

    @property
    def route(self) -> tuple[float, float]:
        """(K, p) for the bound engine: (modulus, 1) in quasi mode, (1, exponent) in p mode."""
        if self.bound_mode == "quasi":
            return self.norm_spec.K, 1.0
        return 1.0, (self.norm_spec.p if self.norm_spec.kind == "lp_quasi" else 1.0)


@dataclass
class ProbeResult:
    probe: np.ndarray
    norm_x: float
    q_estimate: object
    iterations: int
    converged: bool
    deviation: float
    bound: float
    margin: float
    tail_bound: float | None
    status: str
    reason: str | None = None  # why the probe failed; None on a pass


@dataclass
class StabilityReport:
    probes: list[ProbeResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.status == "pass" for p in self.probes)

    @property
    def worst_margin(self) -> float:
        # np.min keeps a NaN margin whatever the probe order, where min() depends on it
        return float(np.min([p.margin for p in self.probes], initial=np.inf))


def probe_bound(phi: ControlFunction, cfg: StabilityConfig, X) -> np.ndarray:
    """The bound at each point of the block X: the exact sum, one array expression."""
    return _bounds(phi, cfg.n, np.asarray(X), cfg.direction, *cfg.route, None)


def _budgets(phi: ControlFunction, P, matrix: bool) -> np.ndarray:
    """phi of each tuple stacked in P, shape (B, n, *point)."""
    if phi.variant == "power":
        return phi.epsilon * _power_weights(phi.norm, _magnitudes(P, matrix), phi.r)
    return np.full(len(P), phi.theta)


def _consistency_warn(f: Mapping, phi: ControlFunction, cfg: StabilityConfig, seed: int = 0):
    """Warn at the first of 48 sampled tuples whose residual norm exceeds phi there."""
    try:
        for P, R in _residual_blocks(f, EquationSpec("fe3", n=cfg.n), 48, seed):
            res, budget = codomain_norms(cfg.norm_spec, R), _budgets(phi, P, f.domain.matrix)
            over = np.flatnonzero(res > budget * (1.0 + 1e-9) + 1e-12)
            if over.size:
                i = over[0]
                problem = (f"control function does not dominate sampled residuals "
                           f"({res[i]:.6g} > {budget[i]:.6g})")
                break
        else:
            return
    except NonFiniteResidualError as e:
        problem = f"control function cannot be checked: {e}"
    warnings.warn(f"{problem}; bounds may not hold", RuntimeWarning, stacklevel=3)


def stabilize(f: Mapping, phi: ControlFunction, cfg: StabilityConfig,
              check_consistency: bool = True) -> StabilityReport:
    """Run the direct-method iteration on every probe and audit the bound.

    One `probe_bound` call on the probe block gives each probe's bound and tail.
    Level m iterates the probes not yet converged in one `hyers_iterate` call
    and stops each by its own gap and tail.  Raises DivergenceError/OpenProblemError
    when the configured series does not converge.  A probe that meets a non-finite
    iterate or bound, stops unconverged (at m_max or the scale guard), or whose
    deviation exceeds bound + tol is a failure with that reason.
    """
    if not cfg.probes:
        raise ValueError("config needs at least one probe")
    probes = [np.asarray(x) for x in cfg.probes]
    X = np.stack([f._coerce(x) for x in probes])
    bounds = probe_bound(phi, cfg, X)
    if check_consistency:
        _consistency_warn(f, phi, cfg)
    lam = float(cfg.n - 1)
    # the exact sum is homogeneous of degree r in x, so the distance left to
    # the limit after iterate m is bound(x) * decay**m
    r = _degree(phi)
    decay = lam ** ((r - 2.0) if cfg.direction == "forward" else (2.0 - r))
    iterations, converged, tails = np.zeros(len(X), int), np.zeros(len(X), bool), np.full(len(X), np.nan)
    non_finite = {}  # probe -> first level with a non-finite iterate
    active = np.arange(len(X))
    for m in range(cfg.m_max + 1):
        if lam**m > SCALE_GUARD or not active.size:
            break
        V = hyers_iterate(f, cfg.n, m, X[active], cfg.direction)
        for i in active[~np.isfinite(V.reshape(len(active), -1)).all(axis=1)]:
            non_finite.setdefault(i, m)
        if m == 0:
            first, last = V, V.copy()
            continue
        gaps = codomain_norms(cfg.norm_spec, V - last[active])
        last[active] = V
        iterations[active] = m
        with np.errstate(over="ignore", invalid="ignore"):  # a bound out of range has its own reason
            tails[active] = bounds[active] * decay**m
            done = (gaps < cfg.tol) & (tails[active] < cfg.tol)
        converged[active] = done
        active = active[~done]
    deviations = codomain_norms(cfg.norm_spec, first - last).tolist()
    norms = _norms(cfg.domain_norm, _magnitudes(X, f.domain.matrix)).tolist()
    bounds, iterations, converged = bounds.tolist(), iterations.tolist(), converged.tolist()
    tails = [t if it else None for t, it in zip(tails.tolist(), iterations)]
    report = StabilityReport()
    for i, (x, deviation) in enumerate(zip(probes, deviations)):
        margin = bounds[i] - deviation
        passed = converged[i] and margin >= -cfg.tol and math.isfinite(bounds[i])
        reason = (None if passed else f"non-finite iterate at m={non_finite[i]}" if i in non_finite
                  else "bound is not finite" if not math.isfinite(bounds[i])
                  else "deviation above bound + tol" if converged[i]
                  else f"not converged when (n-1)^m passed {SCALE_GUARD:g} at m={m}" if lam**m > SCALE_GUARD
                  else f"not converged within m_max={cfg.m_max}")
        report.probes.append(ProbeResult(
            probe=x, norm_x=norms[i], q_estimate=last[i], iterations=iterations[i],
            converged=converged[i], deviation=deviation, bound=bounds[i], margin=margin,
            tail_bound=tails[i], status="pass" if passed else "fail", reason=reason))
    return report


# ---------------------------------------------------------------------------
# control-function fitting


def fit_power_amplitude(f: Mapping, n: int, r: float, trials: int = 400, seed: int = 0,
                        box: float = 10.0, domain_norm: QuasiNormSpec | None = None,
                        codomain: QuasiNormSpec | None = None) -> float:
    """Fit epsilon as the sup of ||R|| / sum_i ||x_i||^r over the tuples of `_residual_blocks`, so the
    fitted budget dominates its whole sample.  Tuples of weight 0 (no ratio) or out of floating-point
    range (ratio 0) are skipped, and a sample with none left is refused."""
    eps, usable = 0.0, False
    for P, R in _residual_blocks(f, EquationSpec("fe3", n=n), trials, seed, box):
        weights = _power_weights(domain_norm, _magnitudes(P, f.domain.matrix), r)
        ok = (0.0 < weights) & (weights < np.inf)
        usable |= bool(ok.any())
        eps = float(np.max(codomain_norms(codomain, R)[ok] / weights[ok], initial=eps))
    if not usable:
        raise ValueError("sample produced no usable weight")
    return eps


def fit_constant_level(f: Mapping, n: int, trials: int = 400, seed: int = 0,
                       box: float = 10.0, codomain: QuasiNormSpec | None = None) -> float:
    """Fit theta as the sup of the twisted residual norm (`value_norm` when codomain is None)."""
    return empirical_sup_residual(f, EquationSpec("fe3", n=n), trials, seed, norm=codomain, box=box)


# ---------------------------------------------------------------------------
# covariance of the stabilized limit under the unitary action


@dataclass
class CovarianceReport:
    max_relative_deviation: float
    passed: bool
    unitary_count: int
    iterations_used: int

    def __bool__(self) -> bool:
        return self.passed


def verify_unitary_covariance(f: Mapping, cfg: StabilityConfig, unitary_count: int = 100,
                              seed: int = 0, tol: float = 1e-6) -> CovarianceReport:
    """Check Q_est(u x) = u Q_est(x) u* for the stabilized limit over sampled unitaries.

    m* is the most iterations `stabilize` takes on cfg's probes under the fitted
    constant budget 1.05 theta + 1e-12.  The unitaries come from the second
    spawned child of seed, a stream of their own.  Relative to 1 + ||Q_est(x)||;
    for scalar algebras the conjugation degenerates to multiplication by |u|^2.
    """
    level = fit_constant_level(f, cfg.n, seed=seed, codomain=cfg.norm_spec)
    report = stabilize(f, constant(level * 1.05 + 1e-12), cfg, check_consistency=False)
    m_star = max(1, *(p.iterations for p in report.probes))

    X = np.stack([f._coerce(x) for x in cfg.probes])
    bases = hyers_iterate(f, cfg.n, m_star, X, cfg.direction)  # Q_est(x) does not depend on the unitary
    scales = 1.0 + codomain_norms(cfg.norm_spec, bases)
    rng = np.random.default_rng(seed).spawn(2)[1]  # apart from the fit's points and its unitaries, child 0
    step = block_length(X.size)  # unitaries per block
    worst = 0.0
    for start in range(0, unitary_count, step):
        U = _draw_unitaries(rng, f.domain, min(step, unitary_count - start))
        # row j of the block pairs unitary j // len(X) with probe j % len(X)
        Uj = np.repeat(U, len(X), axis=0)
        moved = hyers_iterate(f, cfg.n, m_star, act_block(Uj, np.concatenate([X] * len(U))), cfg.direction)
        dev = codomain_norms(cfg.norm_spec, moved - conjugate_block(Uj, np.concatenate([bases] * len(U))))
        # np.max keeps a NaN deviation, where max(worst, nan) would drop it
        worst = float(np.max(dev.reshape(len(U), -1) / scales, initial=worst))
    return CovarianceReport(
        max_relative_deviation=worst,
        passed=worst <= tol,
        unitary_count=unitary_count,
        iterations_used=m_star,
    )
