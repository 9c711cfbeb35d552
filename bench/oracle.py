"""The `oracle` workload: exact GF(q) solution-space queries.

Each round holds a fixed set of slots whose cost class does not depend on
the seed; the seed draws which equations fill them, their sides and order:

  - small pairs over F_q for every prime q from 5 to 31 (d = 1)
  - fe3:4 over F_19 and fe3:5 over F_31 (subsample plan), bound by streaming
  - pairs over F_5^2, F_7^2, F_11^2, F_13^2 and F_5^3
  - two large-column nullspace queries, fe1 over F_23^2 (529 columns),
    whose elimination matrices exceed the L2 cache
  - two family and one raw nullspace_basis queries, three inadmissible
    pairs, and two raw term-list equations (additive Cauchy, Drygas) that
    differ from the family

Checks: admissible family pairs have equal spaces of dimension d(d+1)/2; a
"differ" verdict needs a certificate that constraints_hold accepts on one
side and rejects on the other; InadmissibleGroupError is raised exactly
when check_admissible says so.
"""

from __future__ import annotations

import numpy as np

from core import CheckFailed, Op

import quadstab.finite as finite
from quadstab.equations import parse_equation

WORK_UNIT = "rows"
ROUNDS = 12
PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
LARGE = (23, 2)
LARGE_PER_ROUND = 2

# always admissible for primes q >= 5
ARITY3 = ("fe2", "fe3:3")
SAFE_ARITY2 = ("fe1", "fe3_0:0", "fe3_0:2")
SAFE = ARITY3 + SAFE_ARITY2
# need q >= 11: q = 5 or 7 divides an obstruction factor
LARGE_Q_ARITY2 = ("fe3_0:3", "fe3_0:4")
LARGE_Q_ONLY = ("fe3:4", "fe3:5") + LARGE_Q_ARITY2

RAW = {
    # f(x+y) = f(x) + f(y): additive maps, dimension d
    "cauchy": [[1, [1, 1]], [-1, [1, 0]], [-1, [0, 1]]],
    # f(x+y) + f(x-y) = 2f(x) + f(y) + f(-y): quadratic plus additive
    "drygas": [[1, [1, 1]], [1, [1, -1]], [-2, [1, 0]], [-1, [0, 1]], [-1, [0, -1]]],
}


def equation(name: str):
    if name in RAW:
        return [(c, tuple(w)) for c, w in RAW[name]]
    return parse_equation(name)


def expected_dim(name: str, d: int) -> int:
    if name == "cauchy":
        return d
    if name == "drygas":
        return d * (d + 1) // 2 + d
    return d * (d + 1) // 2


def _admissible(name: str, group) -> bool:
    try:
        finite.check_admissible(equation(name), group)
    except finite.InadmissibleGroupError:
        return False
    return True


def _plans(names, q, d) -> list:
    """(rows, plan) of each constraint system the query builds; none when rejected."""
    group = finite.GroupSpec(q, d)
    if not all(_admissible(n, group) for n in names):
        return []
    systems = [finite.ConstraintMatrix(equation(n), group) for n in names]
    return [(m.n_rows, m.plan) for m in systems]


def _round(seed: int, index: int) -> list[Op]:
    rng = np.random.default_rng([seed, index, 0x0AC1E])
    pick = lambda seq: seq[int(rng.integers(len(seq)))]
    specs = []

    def pair(a, b, q, d):
        if rng.random() < 0.5:
            a, b = b, a
        specs.append(("spaces_equal", {"eqs": [a, b], "q": q, "d": d}))

    def basis(a, q, d):
        specs.append(("nullspace_basis", {"eqs": [a], "q": q, "d": d}))

    # each slot fixes the group and the arity of both sides, so its cost
    # class is the same for every seed; the seed picks the equations
    for q in PRIMES:
        pair(pick(ARITY3), pick(SAFE_ARITY2 + (LARGE_Q_ARITY2 if q >= 11 else ())), q, 1)
    pair("fe3:4", pick(SAFE_ARITY2), 19, 1)
    pair("fe3:5", pick(SAFE_ARITY2), 31, 1)
    pair(pick(ARITY3), pick(SAFE_ARITY2), 5, 2)
    pair(pick(ARITY3), pick(SAFE_ARITY2), 7, 2)
    pair(pick(SAFE_ARITY2), pick(LARGE_Q_ARITY2), 11, 2)
    pair(pick(SAFE_ARITY2), pick(LARGE_Q_ARITY2), 13, 2)
    pair(pick(SAFE_ARITY2), pick(SAFE_ARITY2), 5, 3)
    # the 529-column query (~1.5 s) twice per round: a run of whole rounds
    # holds at least 12 of them even 25 % slower than at the seed commit, so
    # the tail (10 ops beyond it) always falls in this elimination-bound class
    for _ in range(LARGE_PER_ROUND):
        basis("fe1", *LARGE)
    basis(pick(ARITY3), 29, 1)
    basis(pick(SAFE_ARITY2 + LARGE_Q_ARITY2), 11, 2)
    raws = list(RAW)
    if rng.random() < 0.5:
        raws.reverse()
    basis(raws[0], 7, 2)
    pair(raws[0], pick(SAFE_ARITY2), 7, 2)
    pair(raws[1], pick(SAFE_ARITY2), 11, 1)
    # rejected by the admissibility gate before any work
    for _ in range(3):
        pair(pick(LARGE_Q_ONLY), pick(SAFE), pick((5, 7)), pick((1, 2)))

    order = rng.permutation(len(specs))
    ops = []
    for pos, i in enumerate(order):
        kind, params = specs[i]
        plans = _plans(params["eqs"], params["q"], params["d"])
        params["rows"] = sum(rows for rows, _ in plans)
        params["plans"] = [plan for _, plan in plans]
        ops.append(Op(f"r{index:02d}-{pos:02d}-{kind}", kind, params))
    return ops


def generate(seed: int) -> list[list[Op]]:
    return [_round(seed, i) for i in range(ROUNDS)]


class Rejected:
    """An op refused by the admissibility gate (an expected outcome)."""

    def __init__(self, error):
        self.error = error


def warmup(ctx) -> None:
    finite.spaces_equal(parse_equation("fe3:3"), parse_equation("fe1"), finite.GroupSpec(5, 1))
    finite.nullspace_basis(finite.enumerate_constraints(parse_equation("fe1"), finite.GroupSpec(5, 2)))


def execute(op: Op, ctx):
    p = op.params
    group = finite.GroupSpec(p["q"], p["d"])
    eqs = [equation(n) for n in p["eqs"]]
    try:
        if op.kind == "spaces_equal":
            return finite.spaces_equal(eqs[0], eqs[1], group)
        return finite.nullspace_basis(finite.enumerate_constraints(eqs[0], group))
    except finite.InadmissibleGroupError as e:
        return Rejected(e)


def work(op: Op, result) -> int:
    """Constraint rows of the queried systems: sum of ConstraintMatrix.n_rows."""
    return op.params["rows"]


def check(op: Op, result, ctx):
    p = op.params
    names, q, d = p["eqs"], p["q"], p["d"]
    group = finite.GroupSpec(q, d)
    admissible = all(_admissible(n, group) for n in names)
    if isinstance(result, Rejected):
        if admissible:
            raise CheckFailed(f"rejected an admissible query: {result.error}")
        return "rejected"
    if not admissible:
        raise CheckFailed("an inadmissible query was answered instead of rejected")
    dims = [expected_dim(n, d) for n in names]
    if op.kind == "nullspace_basis":
        if len(result) != dims[0]:
            raise CheckFailed(f"nullspace dim {len(result)}, theory says {dims[0]}")
        return {"dim": len(result)}
    got = [result.dim_left, result.dim_right]
    if got != dims:
        raise CheckFailed(f"dims {got}, theory says {dims}")
    if not any(n in RAW for n in names):
        if not result.equal:
            raise CheckFailed(f"family pair reported different spaces ({result.side})")
        return {"equal": True, "dims": got}
    if result.equal or result.certificate is None:
        raise CheckFailed("raw equation reported equal to a family member")
    holds = [bool(finite.constraints_hold(finite.ConstraintMatrix(equation(n), group),
                                          [result.certificate])[0]) for n in names]
    want = [True, False] if result.side == "left-only" else [False, True]
    if holds != want:
        raise CheckFailed(f"certificate for side {result.side} holds on {holds}")
    return {"equal": False, "dims": got, "side": result.side,
            "certificate": [int(v) for v in result.certificate]}


def mappings_of(ops) -> list:
    return []


def unitary_orders(ops) -> list[int]:
    return []
