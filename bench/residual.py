"""The `residual` workload: sampled sup-residual sweeps.

Each round sweeps `empirical_sup_residual` over every pairing of six
mapping kinds (exact and perturbed; scalar, stacked-vector, and M_2(C)
matrix under Haar unitaries) with the four equation families (fe1, fe2,
fe3:n, fe3_0:a), runs `inner_product_characterization` in modes b and c on
three inner-product norms (Euclidean and weighted: full sample) and three
others (l1 and l^p: early exit with a witness), and runs two
`concavity_modulus_estimate` sweeps.  The seed draws coefficients,
amplitudes, weights, exponents and sample seeds; dimensions, arities and
shifts cycle with the round so every run sees the same mix of costs.

Checks: exact forms stay within 1e-9 (1 + scale); bounded bumps stay
within amplitude * sum|coeff| * sup|bump| on top of that; inner-product
norms pass; a witness residual is recomputed from the norm itself; the
concavity estimate never exceeds the modulus K.
"""

from __future__ import annotations

import math

import numpy as np

from core import CheckFailed, Op, finite_float

import quadstab.algebra as algebra
import quadstab.finite as finite
import quadstab.mappings as mappings
from quadstab.equations import EquationSpec, parse_equation

WORK_UNIT = "tuples"
ROUNDS = 48
SWEEP_TRIALS = 100
PASS_TRIALS = 400
CONCAVITY_TRIALS = 400
BOX = 10.0
EXACT_RTOL = 1e-9
SHIFTS = (0, 2, 3, 4)
MAPPING_KINDS = ("exact-scalar", "exact-vector", "exact-matrix",
                 "bump-scalar", "bump-vector", "bump-matrix")


def _sym(rng, d):
    a = rng.uniform(-2.0, 2.0, (d, d))
    return ((a + a.T) / 2.0).round(6).tolist()


def _mapping_spec(rng, kind, d):
    if kind == "exact-scalar":
        return {"kind": kind, "M": [_sym(rng, d)]}
    if kind == "exact-vector":
        return {"kind": kind, "M": [_sym(rng, d), _sym(rng, d)]}
    if kind == "exact-matrix":
        return {"kind": kind, "M": [_sym(rng, 1 + d % 2)], "k": 2}
    amp = round(float(rng.uniform(0.01, 0.2)), 6)
    if kind == "bump-scalar":
        return {"kind": kind, "M": [_sym(rng, d)], "bump": ["sine", "cosine"][d % 2],
                "amp": amp}
    if kind == "bump-vector":
        return {"kind": kind, "M": [_sym(rng, d), _sym(rng, d)], "amp": amp}
    h12 = round(float(rng.uniform(-0.5, 0.5)), 6)
    return {"kind": kind, "k": 2, "amp": amp,
            "h": [[round(float(rng.uniform(0.5, 1.5)), 6), h12],
                  [h12, round(float(rng.uniform(-1.0, 0.0)), 6)]]}


def build_mapping(spec):
    kind = spec["kind"]
    if kind == "exact-scalar":
        return mappings.QuadraticForm(spec["M"][0])
    if kind == "exact-vector":
        return mappings.Stack([mappings.QuadraticForm(m) for m in spec["M"]])
    if kind == "exact-matrix":
        return mappings.QuadraticForm(spec["M"][0], k=spec["k"])
    if kind == "bump-scalar":
        base = mappings.QuadraticForm(spec["M"][0])
        d = base.domain.d
        bump = mappings.Sine(d) if spec["bump"] == "sine" else mappings.Cosine(d)
        return mappings.Perturbed(base, bump, spec["amp"])
    if kind == "bump-vector":
        d = len(spec["M"][0])
        return mappings.Perturbed(mappings.Stack([mappings.QuadraticForm(m) for m in spec["M"]]),
                                  mappings.Stack([mappings.Sine(d), mappings.Cosine(d)]),
                                  spec["amp"])
    return mappings.Perturbed(mappings.MatrixSquare(spec["k"]),
                              mappings.MatrixSineBump(spec["h"]), spec["amp"])


def _norm_spec(rng, family, dim):
    if family == "euclidean":
        return {"kind": "euclidean", "dim": dim}
    if family == "weighted":
        return {"kind": "weighted", "weights": rng.uniform(0.2, 3.0, dim).round(6).tolist()}
    if family == "l1":
        return {"kind": "l1", "dim": dim}
    return {"kind": "lp_quasi", "dim": dim, "p": round(float(rng.uniform(0.3, 0.9)), 6)}


def build_norm(spec) -> algebra.QuasiNormSpec:
    if spec["kind"] == "euclidean":
        return algebra.euclidean(spec["dim"])
    if spec["kind"] == "weighted":
        return algebra.weighted(spec["weights"])
    if spec["kind"] == "l1":
        return algebra.l1(spec["dim"])
    return algebra.lp_quasi(spec["p"], spec["dim"])


def _round(seed: int, index: int) -> list[Op]:
    # choices that set an op's cost (dimension, arity, shift a) cycle with
    # the round and slot index, so every run sees the same mix; the seed
    # draws coefficients, amplitudes, weights, exponents and sample seeds
    rng = np.random.default_rng([seed, index, 0x5E51D])
    sd = lambda: int(rng.integers(0, 2**31 - 1))
    specs = []
    for i, kind in enumerate(MAPPING_KINDS):
        for j, eq in enumerate(("fe1", "fe2", f"fe3:{3 + (index + i) % 3}",
                                f"fe3_0:{SHIFTS[(index + i) % 4]}")):
            d = 1 + (index + i + j) % 3
            specs.append(("sup_residual", {"mapping": _mapping_spec(rng, kind, d), "eq": eq,
                                           "trials": SWEEP_TRIALS, "seed": sd()}))
    for i, (family, mode) in enumerate((("euclidean", "b"), ("euclidean", "c"),
                                        ("weighted", "b"), ("l1", "b"), ("l1", "c"),
                                        ("lp_quasi", "c"))):
        param = SHIFTS[(index + i) % 4] if mode == "b" else 3 + (index + i) % 3
        dim = 1 + (index + i) % 4 if family == "euclidean" else 2 + (index + i) % 3
        specs.append(("characterize", {"norm": _norm_spec(rng, family, dim), "mode": mode,
                                       "param": param, "trials": PASS_TRIALS, "seed": sd()}))
    for i, family in enumerate(("euclidean", "lp_quasi")):
        specs.append(("concavity", {"norm": _norm_spec(rng, family, 2 + (index + i) % 3),
                                    "trials": CONCAVITY_TRIALS, "seed": sd()}))
    order = rng.permutation(len(specs))
    return [Op(f"r{index:02d}-{pos:02d}-{specs[i][0]}", specs[i][0], specs[i][1])
            for pos, i in enumerate(order)]


def generate(seed: int) -> list[list[Op]]:
    return [_round(seed, i) for i in range(ROUNDS)]


def warmup(ctx) -> None:
    f = build_mapping({"kind": "bump-matrix", "k": 2, "amp": 0.1, "h": [[1.0, 0.0], [0.0, -1.0]]})
    mappings.empirical_sup_residual(f, EquationSpec("fe3", n=3), trials=4, seed=0)
    finite.inner_product_characterization(algebra.euclidean(2), "b", 2, trials=4)
    algebra.concavity_modulus_estimate(algebra.l1(2), trials=4)


def execute(op: Op, ctx):
    p = op.params
    if op.kind == "sup_residual":
        return mappings.empirical_sup_residual(build_mapping(p["mapping"]), parse_equation(p["eq"]),
                                               trials=p["trials"], seed=p["seed"], box=BOX)
    spec = build_norm(p["norm"])
    if op.kind == "characterize":
        return finite.inner_product_characterization(spec, p["mode"], p["param"],
                                                     trials=p["trials"], seed=p["seed"])
    return algebra.concavity_modulus_estimate(spec, trials=p["trials"], seed=p["seed"])


def _terms(op):
    p = op.params
    if op.kind == "sup_residual":
        return parse_equation(p["eq"]).terms()
    if p["mode"] == "b":
        return EquationSpec("fe3_0", a=p["param"]).terms()
    return EquationSpec("fe3", n=p["param"]).terms()


def work(op: Op, result) -> int:
    """Tuples sampled: a witness ends a characterization early."""
    if op.kind != "characterize" or result.passed:
        return op.params["trials"]
    return _witness_position(op, result) + 1


def _witness_position(op, result) -> int:
    """Index of the witness in the sample stream, whose (e_i, e_j, 0, ...)
    prelude comes first; a witness from the random part counts as the full
    sample, an upper bound."""
    witness = np.stack(result.witness)
    eye = np.eye(witness.shape[1])
    pos = 0
    for i in range(eye.shape[0]):
        for j in range(eye.shape[0]):
            if i != j:
                pts = np.zeros_like(witness)
                pts[0], pts[1] = eye[i], eye[j]
                if np.array_equal(witness, pts):
                    return pos
                pos += 1
    return op.params["trials"] - 1


def _value_bound(spec, weight_sum: float) -> float:
    """Upper bound on |f(arg)| for an argument whose coordinates are at most
    weight_sum * BOX in magnitude per real component."""
    complex_coords = spec["kind"].endswith("matrix")
    k = spec.get("k", 1)
    mag = weight_sum * BOX * (math.sqrt(2.0) if complex_coords else 1.0) * k
    if spec["kind"] == "bump-matrix":
        return mag * mag
    return math.sqrt(sum((np.abs(np.asarray(m)).sum() * mag * mag) ** 2 for m in spec["M"]))


def _bump_bound(spec) -> float:
    if spec["kind"] == "bump-scalar":
        return float(len(spec["M"][0]))
    if spec["kind"] == "bump-vector":
        return math.sqrt(2.0) * len(spec["M"][0])
    if spec["kind"] == "bump-matrix":
        return float(np.linalg.norm(spec["h"]))
    return 0.0


def _norm_value(spec, v) -> float:
    """The norm written out from its definition, independent of algebra.norm_eval."""
    a = np.abs(np.asarray(v, dtype=float))
    if spec["kind"] == "euclidean":
        return float(np.sqrt((a * a).sum()))
    if spec["kind"] == "weighted":
        return float(np.sqrt((np.asarray(spec["weights"]) * a * a).sum()))
    if spec["kind"] == "l1":
        return float(a.sum())
    return float((a ** spec["p"]).sum() ** (1.0 / spec["p"]))


def check(op: Op, result, ctx):
    p = op.params
    if op.kind == "sup_residual":
        sup = finite_float(result)
        terms = _terms(op)
        spec = p["mapping"]
        scale = sum(abs(c) * _value_bound(spec, sum(map(abs, w))) for c, w in terms)
        limit = (p["mapping"].get("amp", 0.0) * sum(abs(c) for c, _ in terms) * _bump_bound(spec)
                 + EXACT_RTOL * (1.0 + scale))
        if sup > limit:
            raise CheckFailed(f"{spec['kind']} on {p['eq']}: sup residual {sup!r} > {limit!r}")
        return sup
    if op.kind == "concavity":
        est = finite_float(result)
        K = build_norm(p["norm"]).K
        if not 0.0 < est <= K * (1.0 + 1e-12):
            raise CheckFailed(f"concavity estimate {est!r} outside (0, K={K}]")
        return est
    inner = p["norm"]["kind"] in ("euclidean", "weighted") or build_norm(p["norm"]).dim == 1
    if inner:
        if not result.passed:
            raise CheckFailed(f"inner-product norm {p['norm']['kind']} refuted: "
                              f"residual {result.witness_residual!r}")
        return finite_float(result.sup_residual)
    if result.passed:
        raise CheckFailed(f"{p['norm']['kind']} norm passed the inner-product identity")
    stacked = np.stack([np.asarray(x, dtype=float) for x in result.witness])
    parts = [c * _norm_value(p["norm"], np.asarray(w) @ stacked) ** 2 for c, w in _terms(op)]
    want = sum(parts)
    if abs(want - result.witness_residual) > 1e-9 * (1.0 + sum(map(abs, parts))):
        raise CheckFailed(f"witness residual {result.witness_residual!r}, recomputed {want!r}")
    if abs(want) <= 1e-9 * (1.0 + sum(map(abs, parts))):
        raise CheckFailed("witness does not violate the identity")
    return [finite_float(result.witness_residual), np.asarray(stacked).tolist()]


def mappings_of(ops) -> list:
    seen = {}
    for op in ops:
        if op.kind == "sup_residual":
            seen.setdefault(repr(op.params["mapping"]), op.params["mapping"])
    return [build_mapping(s) for s in seen.values()]


def unitary_orders(ops) -> list[int]:
    return sorted({op.params["mapping"]["k"] for op in ops
                   if op.kind == "sup_residual" and "k" in op.params["mapping"]})
