"""The `audit` workload: stability scenarios through harness.run_scenario.

Each round holds one scenario of every family the presets use: forward and
backward schemes, quasi and p bound modes, power and constant controls
(fitted and given), scalar, stacked-vector and l^{1/2} codomains, unitary
covariance on M_2(C), one bound_equality grid, one deadzone sweep and one
rejected (open-problem or divergent) run.  The seed draws the numbers:
coefficients, amplitudes, arities, probe and fit seeds, grids and sweeps.

Checks rest on the theorems, not on row statuses: every probe's deviation
is at most its bound + tol, the bound equals the closed form, the recovered
limit equals the exact quadratic part of the mapping, covariance deviation
is at most tol, K=1 and p=1 routes agree to 1e-12, and the exit code is the
one the convergence regime predicts.
"""

from __future__ import annotations

import copy
import hashlib
import math

import numpy as np

from core import CheckFailed, Op, describe, finite_float

import quadstab.harness as harness
import quadstab.mappings as mappings

WORK_UNIT = "probes"
ROUNDS = 24
# the presets' sizes: 100 probes on scalar and plane codomains, 60 on the
# l^{1/2} plane, 400 fit trials, 100 unitaries
PROBES = 100
PROBES_HALF = 60
FIT_TRIALS = 400
UNITARIES = 100
TOL = 1e-9
BOUND_RTOL = 1e-9
LIMIT_RTOL = 1e-7
EQUALITY_TOL = 1e-12

EXIT_OK = 0
EXIT_EXPECTED_REJECTION = 4


def fe3_terms(n: int):
    """The fe3 term list, written out here so checks do not reuse the library's."""
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            w = [0] * n
            w[i], w[j] = 1, -1
            terms.append((n, w))
    for i in range(n):
        w = [1] * n
        w[i] = 1 - n
        terms.append((-1, w))
    return terms


def linear_growth_constant(n: int) -> float:
    """C with |twisted residual of g| <= C * sum_i |x_i| whenever |g(y)| <= |y|."""
    return float(max(sum(abs(c) * abs(w[l]) for c, w in fe3_terms(n)) for l in range(n)))


def cubic_growth_constant(n: int) -> float:
    """C with |twisted residual of y^3| <= C * sum_i |x_i|^3 (power-mean bound)."""
    terms = fe3_terms(n)
    return float(max(sum(abs(c) * sum(map(abs, w)) ** 2 * abs(w[l]) for c, w in terms)
                     for l in range(n)))


def abs_coeff_sum(n: int) -> float:
    return float(sum(abs(c) for c, _ in fe3_terms(n)))


def closed_form(n, variant, direction, mode, K, p, norm_x, epsilon=None, r=None, theta=None):
    """The direct-method error bound in closed form (quasi-norm or p-norm route)."""
    lam = n - 1.0
    if mode == "quasi":
        if variant == "constant":
            return (n + 2) * K * theta / (n * (lam**2 - K))
        den = lam**2 - K * lam**r if direction == "forward" else lam**r - K * lam**2
        return (n + 2) * K * epsilon * norm_x**r / (n * den)
    if variant == "constant":
        return (n + 2) * theta / (n * (lam ** (2 * p) - 1.0) ** (1.0 / p))
    den = (lam ** (2 * p) - lam ** (r * p) if direction == "forward"
           else lam ** (r * p) - lam ** (2 * p))
    return (n + 2) * epsilon * norm_x**r / (n * den ** (1.0 / p))


# ---------------------------------------------------------------------------
# generation


def _quad(c):
    return {"family": "quadratic_form", "coefficients": [[float(c)]]}


def _scaled(factor, inner):
    return {"family": "scaled", "factor": float(factor), "inner": {"family": inner}}


def _stability(seed, n, norm, mapping, control, direction, mode, base, probes=None):
    if probes is None:
        probes = PROBES_HALF if norm["kind"] == "lp_quasi" else PROBES
    cfg = {
        "kind": "stability", "seed": seed,
        "equation": {"id": "fe3", "n": n},
        "norm": norm,
        "domain_norm": {"kind": "euclidean", "dim": 1},
        "mapping": mapping,
        "control": control,
        "stability": {"direction": direction, "m_max": 40, "tol": TOL,
                      "series_tol": 1e-13, "bound_mode": mode,
                      "probes": {"count": probes, "box": 10.0}},
    }
    K = 2.0 if norm["kind"] == "lp_quasi" else 1.0
    p = norm.get("p", 1.0) if norm["kind"] == "lp_quasi" else 1.0
    expect = {"exit": EXIT_OK, "n": n, "K": K, "p": p, "mode": mode,
              "direction": direction, "base": base, "norm": norm["kind"]}
    return {"config": cfg, "expect": expect}


def _round(seed: int, index: int) -> list[Op]:
    # discrete choices that change an op's cost (the arity n) alternate with
    # the round index, so every run sees the same mix; the seed draws the rest
    rng = np.random.default_rng([seed, index, 0xA0D1])
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    sd = lambda: int(rng.integers(0, 2**31 - 1))
    scalar = {"kind": "euclidean", "dim": 1}
    vector = {"kind": "euclidean", "dim": 2}
    half = {"kind": "lp_quasi", "p": 0.5, "dim": 2}
    fit_power = lambda r: {"variant": "power", "epsilon": None, "r": r, "fit_trials": FIT_TRIALS}
    fit_const = {"variant": "constant", "theta": None, "fit_trials": FIT_TRIALS}
    specs = []

    def add(kind, body):
        name = f"r{index:02d}-{len(specs):02d}-{kind}"
        body["config"]["name"] = name
        specs.append((name, kind, body))

    def perturbed(base, bump, amp):
        return {"family": "perturbed", "base": base, "bump": bump, "amplitude": amp}

    def stack(*parts):
        return {"family": "stack", "parts": list(parts)}

    # scalar codomain, quasi route
    c, amp = u(0.5, 2.0), u(0.02, 0.08)
    add("fwd-quasi-power-fit", _stability(
        sd(), 3, scalar, perturbed(_quad(c), {"family": "odd_growth"}, amp),
        fit_power(1.0), "forward", "quasi", [c]))
    n = 3 + index % 2
    c, amp = u(0.5, 2.0), u(0.02, 0.08)
    add("fwd-quasi-power-given", _stability(
        sd(), n, scalar, perturbed(_quad(c), {"family": "odd_growth"}, amp),
        {"variant": "power", "epsilon": amp * linear_growth_constant(n), "r": 1.0},
        "forward", "quasi", [c]))
    c, amp = u(0.5, 2.0), u(0.005, 0.02)
    add("bwd-quasi-power-fit", _stability(
        sd(), 3, scalar, perturbed(_quad(c), {"family": "monomial", "degree": 3}, amp),
        fit_power(3.0), "backward", "quasi", [c]))
    n = 4 - index % 2
    c, amp = u(0.5, 2.0), u(0.005, 0.02)
    add("bwd-quasi-power-given", _stability(
        sd(), n, scalar, perturbed(_quad(c), {"family": "monomial", "degree": 3}, amp),
        {"variant": "power", "epsilon": amp * cubic_growth_constant(n), "r": 3.0},
        "backward", "quasi", [c]))
    c, amp = u(0.5, 2.0), u(0.05, 0.2)
    add("fwd-quasi-const-fit", _stability(
        sd(), 3, scalar, perturbed(_quad(c), {"family": "sine"}, amp),
        fit_const, "forward", "quasi", [c]))

    # l^{1/2} codomain (K = 2): constant budgets need K < (n-1)^2, power r = 1 needs n >= 4
    c1, c2, a, b = u(0.5, 2.0), u(0.5, 3.0), u(0.02, 0.1), u(0.02, 0.1)
    theta = abs_coeff_sum(3) * (math.sqrt(a) + math.sqrt(b)) ** 2
    add("fwd-quasi-const-given-half", _stability(
        sd(), 3, half,
        perturbed(stack(_quad(c1), _quad(c2)), stack(_scaled(a, "sine"), _scaled(b, "cosine")), 1.0),
        {"variant": "constant", "theta": theta}, "forward", "quasi", [c1, c2]))
    c1, c2, a, b = u(0.5, 2.0), u(0.5, 3.0), u(0.02, 0.1), u(0.02, 0.1)
    add("fwd-quasi-const-fit-half", _stability(
        sd(), 3, half,
        perturbed(stack(_quad(c1), _quad(c2)), stack(_scaled(a, "sine"), _scaled(b, "cosine")), 1.0),
        fit_const, "forward", "quasi", [c1, c2]))
    c1, c2, amp = u(0.5, 2.0), u(0.5, 3.0), u(0.02, 0.06)
    add("fwd-quasi-power-fit-half-n4", _stability(
        sd(), 4, half,
        perturbed(stack(_quad(c1), _quad(c2)), stack(_scaled(1.0, "odd_growth"),
                                                     _scaled(-0.5, "odd_growth")), amp),
        fit_power(1.0), "forward", "quasi", [c1, c2]))

    # p route
    c1, c2, amp = u(0.5, 2.0), u(0.5, 3.0), u(0.02, 0.06)
    add("fwd-p-power-fit-half", _stability(
        sd(), 3, half,
        perturbed(stack(_quad(c1), _quad(c2)), stack(_scaled(1.0, "odd_growth"),
                                                     _scaled(-0.5, "odd_growth")), amp),
        fit_power(1.0), "forward", "p", [c1, c2]))
    c, amp = u(0.5, 2.0), u(0.02, 0.08)
    add("fwd-p-power-fit", _stability(
        sd(), 3, scalar, perturbed(_quad(c), {"family": "odd_growth"}, amp),
        fit_power(1.0), "forward", "p", [c]))
    c, amp = u(0.5, 2.0), u(0.005, 0.02)
    add("bwd-p-power-fit", _stability(
        sd(), 3, scalar, perturbed(_quad(c), {"family": "monomial", "degree": 3}, amp),
        fit_power(3.0), "backward", "p", [c]))

    # stacked-vector codomain (Euclidean plane)
    n = 3 + index % 2
    c1, c2, amp, s = u(0.5, 2.0), u(0.5, 3.0), u(0.02, 0.06), u(-1.0, 1.0)
    add("fwd-quasi-power-given-vec", _stability(
        sd(), n, vector,
        perturbed(stack(_quad(c1), _quad(c2)), stack(_scaled(1.0, "odd_growth"),
                                                     _scaled(s, "odd_growth")), amp),
        {"variant": "power", "epsilon": amp * linear_growth_constant(n) * math.hypot(1.0, s),
         "r": 1.0}, "forward", "quasi", [c1, c2]))
    c1, c2, a, b = u(0.5, 2.0), u(0.5, 3.0), u(0.05, 0.2), u(0.05, 0.2)
    add("fwd-p-const-given-vec", _stability(
        sd(), 3, vector,
        perturbed(stack(_quad(c1), _quad(c2)), stack(_scaled(a, "sine"), _scaled(b, "cosine")), 1.0),
        {"variant": "constant", "theta": abs_coeff_sum(3) * math.hypot(a, b)},
        "forward", "p", [c1, c2]))

    # unitary covariance on M_2(C)
    h12 = u(-0.5, 0.5)
    add("covariance", {"config": {
        "kind": "covariance", "seed": sd(), "n": 3,
        "mapping": perturbed({"family": "matrix_square", "k": 2},
                             {"family": "matrix_sine_bump",
                              "h_real": [[u(0.5, 1.5), h12], [h12, u(-1.0, 0.0)]]},
                             u(0.05, 0.15)),
        "unitaries": UNITARIES, "tol": 1e-6,
        "probes": {"count": 3, "box": 3.0},
        "stability": {"m_max": 25, "tol": 1e-10},
    }, "expect": {"exit": EXIT_OK, "tol": 1e-6}})

    # closed-form / series agreement between the K = 1 and p = 1 routes
    rs = sorted({float(x) for x in rng.choice([0.5, 1.0, 1.5, 1.75, 2.5, 3.0, 3.5, 4.0],
                                              size=5, replace=False)})
    xs = sorted(round(u(0.25, 3.0), 6) for _ in range(3))
    add("bound-equality", {"config": {
        "kind": "bound_equality", "seed": sd(),
        "grid": {"n": [3, 4, 5], "r": rs, "norm_x": xs, "epsilon": u(0.5, 2.0),
                 "series_tol": 1e-15},
        "tol": EQUALITY_TOL,
    }, "expect": {"exit": EXIT_OK}})

    # constant-budget denominator sweep; crossing (n-1)^2 is an expected rejection
    n = 4 - index % 2
    top = (n - 1) ** 2
    sweep = sorted(round(u(1.0, top * 1.4), 6) for _ in range(6))
    crosses = any(k >= top for k in sweep)
    cfg = {"kind": "deadzone", "seed": sd(), "n": n,
           "theta": u(0.5, 2.0), "K_sweep": sweep}
    if crosses:
        cfg["expected_status"] = harness.STATUS_REJECTED_OPEN_PROBLEM
    add("deadzone", {"config": cfg, "expect": {
        "exit": EXIT_EXPECTED_REJECTION if crosses else EXIT_OK}})

    # a run the theorem refuses: dead zone (l^{1/2}, K = 2) or the wrong direction
    c, amp = u(0.5, 2.0), u(0.02, 0.08)
    mapping = perturbed(_quad(c), {"family": "odd_growth"}, amp)
    if index % 2 == 0:
        r = u(1.2, 2.8)
        body = _stability(sd(), 3, half, stack(mapping, mapping),
                          {"variant": "power", "epsilon": 1.0, "r": r},
                          "forward", "quasi", [c, c], probes=4)
        # K (n-1)^(r-2) >= 1 and K (n-1)^(2-r) >= 1 for 1 <= r <= 3: no scheme converges
        body["config"]["expected_status"] = harness.STATUS_REJECTED_OPEN_PROBLEM
    else:
        body = _stability(sd(), 3, scalar, mapping,
                          {"variant": "power", "epsilon": amp * linear_growth_constant(3),
                           "r": 1.0}, "backward", "quasi", [c], probes=4)
        body["config"]["expected_status"] = harness.STATUS_REJECTED_DIVERGENT
    body["expect"]["exit"] = EXIT_EXPECTED_REJECTION
    body["expect"]["rejected"] = body["config"]["expected_status"]
    add("rejected", body)

    return [Op(name, kind, body) for name, kind, body in specs]


def generate(seed: int) -> list[list[Op]]:
    return [_round(seed, i) for i in range(ROUNDS)]


def known_defects(seed: int) -> list[Op]:
    """Schema-valid configs that end in an uncaught exception at this commit.

    They are generated and run on every run, outside the timed loop, so a
    fix shows as a drop in the reported failed_ratio.
    """
    first = {op.kind: op for op in _round(seed, 0)}
    cases = []

    def case(kind, label, edit):
        body = copy.deepcopy(first[kind].params)
        edit(body["config"])
        body["config"]["name"] = f"defect-{label}"
        cases.append(Op(f"defect-{label}", "defect", body))

    case("fwd-quasi-power-given", "probe-dim",
         lambda c: c["stability"].__setitem__("probes", [[1.0, 2.0]]))
    case("fwd-quasi-power-given", "norm-dim",
         lambda c: c.__setitem__("norm", {"kind": "euclidean", "dim": 2}))
    case("bound-equality", "grid-n2", lambda c: c["grid"].__setitem__("n", [2]))
    case("bound-equality", "grid-r2", lambda c: c["grid"].__setitem__("r", [2.0]))
    case("covariance", "backward", lambda c: c["stability"].__setitem__("direction", "backward"))
    case("covariance", "cov-probe-dim", lambda c: c.__setitem__("probes", [[1.0, 2.0]]))
    return cases


def run_defect(op: Op, ctx) -> str | None:
    """None when the config runs or is refused with a validation error
    (exit 2); otherwise the exception that escaped."""
    try:
        harness.run_scenario(copy.deepcopy(op.params["config"]), outdir=ctx.outdir)
    except harness.ScenarioValidationError:
        return None
    except Exception as e:  # the defect under watch: anything but exit 2 or a result
        return describe(e)
    return None


# ---------------------------------------------------------------------------
# execution and checks


def warmup(ctx) -> None:
    op = _round(0, 0)[0]
    cfg = copy.deepcopy(op.params["config"])
    cfg["name"] = "warmup"
    cfg["stability"]["probes"]["count"] = 2
    cfg["control"]["fit_trials"] = 4
    harness.run_scenario(cfg, outdir=ctx.outdir)


def execute(op: Op, ctx):
    return harness.run_scenario(copy.deepcopy(op.params["config"]), outdir=ctx.outdir)


def work(op: Op, res) -> int:
    """Probes audited: each has a bound, an iteration and a deviation check."""
    kind = op.params["config"]["kind"]
    if kind == "stability":
        return sum(1 for row in res.rows if row.probe != "-")
    if kind == "covariance":
        return int(op.params["config"]["probes"]["count"])
    return 0


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split("|")]


def check(op: Op, res, ctx):
    cfg = op.params["config"]
    expect = op.params["expect"]
    if res.exit_code != expect["exit"]:
        raise CheckFailed(f"exit code {res.exit_code}, theorem predicts {expect['exit']}")
    kind = cfg["kind"]
    if kind == "stability":
        _check_stability(cfg, expect, res)
    elif kind == "covariance":
        if len(res.rows) != 1:
            raise CheckFailed(f"{len(res.rows)} covariance rows, expected 1")
        dev = finite_float(res.rows[0].deviation)
        if dev > expect["tol"]:
            raise CheckFailed(f"covariance deviation {dev:.3e} > tol {expect['tol']:g}")
    elif kind == "bound_equality":
        _check_bound_equality(cfg, res)
    elif kind == "deadzone":
        _check_deadzone(cfg, res)
    with open(res.csv_path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_stability(cfg, expect, res):
    if "rejected" in expect:
        if len(res.rows) != 1 or res.rows[0].status != expect["rejected"]:
            raise CheckFailed(f"expected one {expect['rejected']} row")
        return
    count = cfg["stability"]["probes"]["count"]
    if len(res.rows) != count:
        raise CheckFailed(f"{len(res.rows)} rows for {count} probes")
    control = res.summary["control"]
    for row in res.rows:
        norm_x = finite_float(row.norm_x)
        dev = finite_float(row.deviation)
        bound = finite_float(row.bound)
        if dev > bound + TOL:
            raise CheckFailed(f"probe {row.probe}: deviation {dev!r} > bound {bound!r} + tol")
        want = closed_form(expect["n"], control["variant"], expect["direction"], expect["mode"],
                           expect["K"], expect["p"], norm_x, epsilon=control.get("epsilon"),
                           r=control.get("r"), theta=control.get("theta"))
        if abs(bound - want) > BOUND_RTOL * want + 1e-12:
            raise CheckFailed(f"probe {row.probe}: bound {bound!r}, closed form {want!r}")
        x = _floats(row.probe)[0]
        limit = [c * x * x for c in expect["base"]]
        got = _floats(row.q_estimate)
        gap = max(abs(g - q) for g, q in zip(got, limit))
        if len(got) != len(limit) or gap > LIMIT_RTOL * (1.0 + max(map(abs, limit))):
            raise CheckFailed(f"probe {row.probe}: limit {got} differs from quadratic part {limit}")


def _check_bound_equality(cfg, res):
    grid = cfg["grid"]
    eps = grid["epsilon"]
    cells = [(n, r, x) for n in grid["n"] for r in grid["r"] for x in grid["norm_x"]]
    if len(res.rows) != len(cells):
        raise CheckFailed(f"{len(res.rows)} rows for {len(cells)} grid cells")
    for row, (n, r, x) in zip(res.rows, cells):
        rel = finite_float(row.deviation)
        if rel > EQUALITY_TOL:
            raise CheckFailed(f"n={n} r={r} x={x}: K=1 vs p=1 disagree by {rel:.3e}")
        direction = "forward" if r < 2.0 else "backward"
        want = closed_form(n, "power", direction, "quasi", 1.0, 1.0, x, epsilon=eps, r=r)
        if abs(float(row.q_estimate) - want) > EQUALITY_TOL * want:
            raise CheckFailed(f"n={n} r={r} x={x}: bound {row.q_estimate}, closed form {want!r}")


def _check_deadzone(cfg, res):
    n, theta = cfg["n"], cfg["theta"]
    top = (n - 1) ** 2
    if len(res.rows) != len(cfg["K_sweep"]):
        raise CheckFailed(f"{len(res.rows)} rows for {len(cfg['K_sweep'])} sweep values")
    for row, K in zip(res.rows, cfg["K_sweep"]):
        if K >= top:
            if row.bound is not None or row.status != harness.STATUS_REJECTED_OPEN_PROBLEM:
                raise CheckFailed(f"K={K} >= (n-1)^2 must be rejected as open problem")
            continue
        want = closed_form(n, "constant", "forward", "quasi", K, 1.0, 1.0, theta=theta)
        if row.bound is None or abs(row.bound - want) > EQUALITY_TOL * want:
            raise CheckFailed(f"K={K}: bound {row.bound}, closed form {want!r}")


# ---------------------------------------------------------------------------
# replay


def mappings_of(ops) -> list:
    seen = {}
    for op in ops:
        m = op.params["config"].get("mapping")
        if m is not None:
            key = repr(m)
            if key not in seen:
                seen[key] = mappings.mapping_from_config(m)
    return list(seen.values())


def unitary_orders(ops) -> list[int]:
    return sorted({op.params["config"]["mapping"]["base"]["k"]
                   for op in ops if op.params["config"]["kind"] == "covariance"})
