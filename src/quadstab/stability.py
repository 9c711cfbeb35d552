"""Constructive stability machinery for the n-point quadratic equation.

If the twisted residual of f is dominated by a control phi, the direct
method builds the nearby exact solution as a limit of rescaled iterates,
with an a-priori error bound built from phi.  Norms are QuasiNormSpec values;
None means `point_norm` on the domain and `value_norm` on the codomain.  The
power weight sum_i ||x_i||^r is written once, `_power_weights`, for phi, the
fit of eps and the consistency check, and the fits and the check reduce
whole blocks of `mappings._residual_blocks`.  One bound engine `bound` sits
under `series_bound_*`, `closed_form_bounds` and `probe_bound`.  `stabilize`
and `verify_unitary_covariance` make one `hyers_iterate` call per level of
probes or block of unitaries x probes.

Conventions:
  forward scheme    iterate_m(x) = g((n-1)^m x) / (n-1)^{2m},
                    g = f + (n-1) f(0) / 2; deviations are reported against g
  backward scheme   iterate_m(x) = (n-1)^{2m} f(x / (n-1)^m); needs f(0) = 0
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import (QuasiNormSpec, _magnitudes, _norms, act_block, codomain_norms, conjugate_block,
                      coordinate_magnitudes, l1, norm_eval)
from .equations import EquationSpec, block_length, term_sum
# approximate_remainder and norm_eval are no longer called here; they stay importable
# from this namespace because bench/spans.py wraps them here by name
from .mappings import (Mapping, NonFiniteResidualError, _residual_blocks, approximate_remainder,
                       draw_unitary, empirical_sup_residual)

MAX_SERIES_TERMS = 100_000
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

    norm None is `point_norm`.  Python float powers round as `_scalar_pow` does, but
    one out of floating-point range raises OverflowError instead of giving inf.
    """
    return term_sum(np.array([[v**r for v in row] for row in _norms(norm, mags).tolist()]))


@dataclass(frozen=True)
class ControlFunction:
    """Perturbation budget phi on n-tuples of domain points.

    power    phi(xs) = epsilon * sum_i ||x_i||^r
    constant phi(xs) = theta
    custom   phi(xs) = fn(xs)   (tests and ad-hoc experiments)
    """

    variant: str
    epsilon: float = 0.0
    r: float = 1.0
    theta: float = 0.0
    fn: object = None
    norm: QuasiNormSpec | None = None  # domain norm of the power budget; None is point_norm

    def __post_init__(self):
        if self.variant not in ("power", "constant", "custom"):
            raise ValueError(f"unknown control variant {self.variant!r}")
        if self.variant == "power" and (self.epsilon < 0 or self.r <= 0):
            raise ValueError("power control needs epsilon >= 0 and r > 0")
        if self.variant == "constant" and self.theta < 0:
            raise ValueError("constant control needs theta >= 0")
        if self.variant == "custom" and not callable(self.fn):
            raise ValueError("custom control needs a callable")
        if self.norm is not None and not isinstance(self.norm, QuasiNormSpec):
            raise TypeError("the control's norm is a QuasiNormSpec or None")

    def _weight(self, xs) -> float:
        """sum_i ||x_i||^r over one tuple of points."""
        mags = np.stack([coordinate_magnitudes(x) for x in xs])[np.newaxis]
        return float(_power_weights(self.norm, mags, self.r)[0])

    def evaluate(self, xs) -> float:
        if self.variant == "power":
            return self.epsilon * self._weight(xs)
        if self.variant == "constant":
            return self.theta
        return float(self.fn(xs))

    __call__ = evaluate


def power(epsilon: float, r: float, norm: QuasiNormSpec | None = None) -> ControlFunction:
    return ControlFunction("power", epsilon=float(epsilon), r=float(r), norm=norm)


def constant(theta: float) -> ControlFunction:
    return ControlFunction("constant", theta=float(theta))


def custom_control(fn, norm: QuasiNormSpec | None = None) -> ControlFunction:
    return ControlFunction("custom", fn=fn, norm=norm)


# ---------------------------------------------------------------------------
# derived control quantities


def phi_component(phi: ControlFunction, n: int, i: int, x) -> float:
    """phi on the one-hot tuple with x in slot i (1-indexed).

    Slot-independent for the power and constant families (evaluated in
    closed form); the generic one-hot evaluation handles custom controls.
    """
    if not 1 <= i <= n:
        raise ValueError(f"slot index {i} out of range 1..{n}")
    if phi.variant != "custom":
        return phi.evaluate([x])
    x = np.asarray(x)
    zero = np.zeros_like(x)
    return phi.evaluate([x if j == i else zero for j in range(1, n + 1)])


def phi_tilde(phi: ControlFunction, n: int, x) -> float:
    """min over adjacent slot pairs of phi_i(x) + phi_{i+1}(x)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if phi.variant != "custom":
        return 2.0 * phi.evaluate([x])
    comps = [phi_component(phi, n, i, x) for i in range(1, n + 1)]
    return min(comps[i] + comps[i + 1] for i in range(n - 1))


def cap_weights(n: int) -> list[float]:
    """The slot weights |(n^2+1)-(i+1)n| / n for i = 1..n."""
    return [abs((n * n + 1) - (i + 1) * n) / n for i in range(1, n + 1)]


def phi_cap(phi: ControlFunction, n: int, x) -> float:
    """min over slots of phi_i(-x) + |(n^2+1)-(i+1)n|/n * phi_tilde(x).

    The weight at slot i = n-1 equals 1/n, which is minimal, so symmetric
    control families reduce to phi_1(x) + (2/n) phi_1(x)-type closed forms.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if phi.variant == "power":
        return (1.0 + 2.0 / n) * phi.epsilon * phi._weight([x])
    if phi.variant == "constant":
        return (1.0 + 2.0 / n) * phi.theta
    x = np.asarray(x)
    tilde = phi_tilde(phi, n, x)
    weights = cap_weights(n)
    return min(
        phi_component(phi, n, i, -x) + weights[i - 1] * tilde
        for i in range(1, n + 1)
    )


# ---------------------------------------------------------------------------
# the bound engine


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
    controls the error of the bound itself (matters for the 1/p-th root).
    """
    total = 0.0
    term = first_term
    for _ in range(MAX_SERIES_TERMS):
        total += term
        term *= ratio
        tail = term / (1.0 - ratio)
        if transform(total + tail) - transform(total) < series_tol:
            return transform(total)
    raise DivergenceError("series truncation cap reached", diagnosis=f"ratio={ratio}")


def _truncate_monitored(term_at, series_tol: float, transform) -> float:
    """Sum term_at(i) for i = 0, 1, ... with empirical ratio monitoring."""
    total = 0.0
    prev = None
    for i in range(MAX_SERIES_TERMS):
        term = term_at(i)
        total += term
        if prev is not None and prev > 0.0:
            ratio = term / prev
            if ratio >= 1.0 and i > 4 and transform(total + term) - transform(total) > series_tol:
                raise DivergenceError(
                    "series terms stopped decreasing", diagnosis=f"term[{i}]={term:.3e}"
                )
            if ratio < 1.0:
                tail = term * ratio / (1.0 - ratio)
                if transform(total + tail) - transform(total) < series_tol:
                    return transform(total)
        elif term == 0.0:
            return transform(total)
        prev = term
    raise DivergenceError("series truncation cap reached", diagnosis="slow convergence")


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

    K > 1 is the quasi-norm route (modulus K) and p < 1 the p-norm route;
    both are this one series, and K = 1, p = 1 is the normed bound.  With
    series_tol None, power and constant budgets give the closed form
    (n+2) K eps ||x||^r / (n [(n-1)^{2p} - K^p (n-1)^{rp}]^{1/p}), a constant
    budget being r = 0 with eps = theta, and the two powers of (n-1) swapped
    for the backward scheme.  With series_tol set, the series is truncated
    once the bound itself is within series_tol; custom controls are always
    summed that way, under empirical ratio monitoring.

    Raises OpenProblemError in the dead zone, and DivergenceError when the
    requested scheme diverges (always for a constant budget run backward).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be forward or backward")
    if K < 1.0 or not 0.0 < p <= 1.0 or (K > 1.0 and p < 1.0):
        raise ValueError("need K >= 1 and 0 < p <= 1, and not both K > 1 and p < 1")
    if series_tol is not None and series_tol <= 0:
        raise ValueError("series_tol must be positive")
    lam = float(n - 1)
    x = np.asarray(x)
    pref = 1.0 / lam**2
    root = lambda s: pref * s ** (1.0 / p)
    if phi.variant == "custom":
        if series_tol is None:
            raise ValueError("a custom control has no closed form; pass series_tol")
        return _truncate_monitored(lambda i: (K ** (i + 1) * _term(phi, n, x, i, direction)) ** p,
                                   series_tol, root)
    if phi.variant == "constant" and direction == "backward":
        raise DivergenceError("no backward scheme for a constant budget")
    r = _degree(phi)
    _require_regime(direction, power_regime(n, K, r),
                    f"dead zone is -log_(n-1) K <= r-2 <= log_(n-1) K at K={K}, r={r}, p={p}")
    if series_tol is None:
        amp, weight = (phi.epsilon, phi._weight([x])) if phi.variant == "power" else (phi.theta, 1.0)
        a, b = lam ** (2.0 * p), lam ** (r * p)
        if direction == "backward":
            a, b = b, a
        return (n + 2) * K * amp * weight / (n * (a - K**p * b) ** (1.0 / p))
    ratio = K**p * lam ** (((r - 2.0) if direction == "forward" else (2.0 - r)) * p)
    return _truncate_geometric((K * _term(phi, n, x, 0, direction)) ** p, ratio, series_tol, root)


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
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be forward or backward")
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
    if n < 3:
        raise ValueError("n must be >= 3")
    if m < 0:
        raise ValueError("m must be >= 0")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be forward or backward")
    lam = float(n - 1)
    if lam**m > SCALE_GUARD:
        raise ValueError(f"(n-1)^m exceeds the overflow guard {SCALE_GUARD:g}")
    one = np.ndim(x) <= len(f.domain.shape)
    X = f._coerce(x)[np.newaxis] if one else np.asarray(x)
    f0 = np.asarray(f(np.zeros_like(X[0])))
    if direction == "forward":
        V = (f.batch(X * lam**m) + (n - 1) / 2.0 * f0) / lam ** (2 * m)
    else:
        if float(np.linalg.norm(np.atleast_1d(f0))) > 1e-9:
            raise ValueError("backward scheme requires f(0) = 0")
        V = lam ** (2 * m) * f.batch(X / lam**m)
    return V[0] if one else V


@dataclass(frozen=True)
class StabilityConfig:
    """Settings for a stabilization experiment.

    norm_spec, the codomain quasi-norm, supplies K (bound_mode "quasi") or p
    (bound_mode "p"; p = 1 for genuine norms); domain_norm measures the probes.
    """

    n: int
    norm_spec: QuasiNormSpec
    direction: str = "forward"
    m_max: int = 40
    tol: float = 1e-9
    probes: tuple = ()
    series_tol: float = 1e-12
    bound_mode: str = "quasi"
    domain_norm: QuasiNormSpec | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be >= 3")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        if self.tol <= 0 or self.series_tol <= 0:
            raise ValueError("tol and series_tol must be positive")
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be forward or backward")
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
    config: StabilityConfig
    control: ControlFunction
    probes: list[ProbeResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.status == "pass" for p in self.probes)

    @property
    def worst_margin(self) -> float:
        # np.min keeps a NaN margin whatever the probe order, where min() depends on it
        return float(np.min([p.margin for p in self.probes], initial=np.inf))


def probe_bound(phi: ControlFunction, cfg: StabilityConfig, x) -> float:
    """The series bound matching the configured direction and bound mode."""
    K, p = cfg.route
    return bound(phi, cfg.n, x, cfg.direction, K=K, p=p, series_tol=cfg.series_tol)


def _budgets(phi: ControlFunction, P, matrix: bool) -> np.ndarray:
    """phi of each tuple stacked in P, shape (B, n, *point)."""
    if phi.variant == "power":
        return phi.epsilon * _power_weights(phi.norm, _magnitudes(P, matrix), phi.r)
    if phi.variant == "constant":
        return np.full(len(P), phi.theta)
    return np.array([phi.evaluate(tuple(xs)) for xs in P], dtype=float)


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

    Level m iterates the probes not yet converged in one `hyers_iterate` call
    and stops each by its own gap and tail.  Raises DivergenceError/
    OpenProblemError when the configured series does not converge.  A probe
    that meets a non-finite iterate, fails to converge within m_max, or whose
    deviation exceeds bound + tol is a failure with that reason.
    """
    if not cfg.probes:
        raise ValueError("config needs at least one probe")
    bounds = [probe_bound(phi, cfg, x) for x in cfg.probes]
    if check_consistency:
        _consistency_warn(f, phi, cfg)
    lam = float(cfg.n - 1)
    K, p = cfg.route
    # the closed form is homogeneous of degree r in x, so the distance left to
    # the limit after iterate m is bound(x) * decay**m
    r = _degree(phi)
    decay = lam ** ((r - 2.0) if cfg.direction == "forward" else (2.0 - r))
    probes = [np.asarray(x) for x in cfg.probes]
    tail0 = [None if phi.variant == "custom" else bound(phi, cfg.n, x, cfg.direction, K, p)
             for x in probes]
    iterations, converged, tails = ([v] * len(probes) for v in (0, False, None))
    non_finite = {}  # probe -> first level with a non-finite iterate
    X, active = np.stack([f._coerce(x) for x in probes]), np.arange(len(probes))
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
        for i, gap in zip(active, gaps):
            tails[i] = None if tail0[i] is None else tail0[i] * decay**m
            iterations[i] = m
            converged[i] = bool(gap < cfg.tol) and (tails[i] is None or tails[i] < cfg.tol)
        active = active[[not converged[i] for i in active]]
    deviations = codomain_norms(cfg.norm_spec, first - last).tolist()
    norms = _norms(cfg.domain_norm, _magnitudes(X, f.domain.matrix)).tolist()
    report = StabilityReport(config=cfg, control=phi)
    for i, (x, deviation) in enumerate(zip(probes, deviations)):
        margin = bounds[i] - deviation
        passed = converged[i] and margin >= -cfg.tol
        reason = (None if passed else f"non-finite iterate at m={non_finite[i]}" if i in non_finite
                  else "deviation above bound + tol" if converged[i]
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
    """Fit epsilon as (sup residual norm) / (sup of sum_i ||x_i||^r) over `_residual_blocks`."""
    sup_res = sup_weight = 0.0
    for P, R in _residual_blocks(f, EquationSpec("fe3", n=n), trials, seed, box):
        sup_res = float(np.max(codomain_norms(codomain, R), initial=sup_res))
        weights = _power_weights(domain_norm, _magnitudes(P, f.domain.matrix), r)
        sup_weight = float(np.max(weights, initial=sup_weight))
    if sup_weight == 0.0:
        raise ValueError("sample produced no usable weight")
    return sup_res / sup_weight


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


def verify_unitary_covariance(f: Mapping, n: int, cfg: StabilityConfig,
                              phi: ControlFunction | None = None,
                              unitary_count: int = 100, seed: int = 0,
                              tol: float = 1e-6) -> CovarianceReport:
    """Check Q_est(u x) = u Q_est(x) u* for the stabilized limit over sampled unitaries.

    Relative to 1 + ||Q_est(x)||; for scalar algebras the conjugation
    degenerates to multiplication by |u|^2.
    """
    if phi is None:
        level = fit_constant_level(f, n, seed=seed, codomain=cfg.norm_spec)
        phi = constant(level * 1.05 + 1e-12)
    report = stabilize(f, phi, cfg, check_consistency=False)
    m_star = max(1, *(p.iterations for p in report.probes))

    X = np.stack([f._coerce(x) for x in cfg.probes])
    bases = hyers_iterate(f, n, m_star, X, cfg.direction)  # Q_est(x) does not depend on the unitary
    scales = 1.0 + codomain_norms(cfg.norm_spec, bases)
    rng = np.random.default_rng(seed)
    step = block_length(X.size)  # unitaries per block
    worst = 0.0
    for start in range(0, unitary_count, step):
        U = np.array([draw_unitary(rng, f.domain) for _ in range(min(step, unitary_count - start))])
        # row j of the block pairs unitary j // len(X) with probe j % len(X)
        Uj = np.repeat(U, len(X), axis=0)
        moved = hyers_iterate(f, n, m_star, act_block(Uj, np.concatenate([X] * len(U))), cfg.direction)
        dev = codomain_norms(cfg.norm_spec, moved - conjugate_block(Uj, np.concatenate([bases] * len(U))))
        # np.max keeps a NaN deviation, where max(worst, nan) would drop it
        worst = float(np.max(dev.reshape(len(U), -1) / scales, initial=worst))
    return CovarianceReport(
        max_relative_deviation=worst,
        passed=worst <= tol,
        unitary_count=unitary_count,
        iterations_used=m_star,
    )
