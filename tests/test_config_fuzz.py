"""Generated scenario configs either run or are refused with exit 2.

The strategies are written by hand from `SCENARIO_SCHEMA`'s families, at
sizes small enough that one example runs in milliseconds.  Values reach the
edges the schema admits: exponents near 0, boxes near the largest double,
huge integers, fields left out and witnesses of the wrong shape.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quadstab.harness as h

FUZZ = settings(max_examples=60, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _maybe(strategy):
    """A field that is present with a drawn value, or left out."""
    return st.one_of(st.just(None), strategy)


def _obj(**fields):
    """A dict strategy that drops the fields drawn as None."""
    return st.fixed_dictionaries(fields).map(
        lambda d: {k: v for k, v in d.items() if v is not None})


small = st.floats(-3.0, 3.0, allow_nan=False)
# the schema admits NaN and Infinity, which json reads, wherever it admits a number
positive = st.one_of(st.floats(1e-6, 10.0),
                     st.sampled_from([1e-300, 1e300, 1e308, float("nan"), float("inf")]))
exponents = st.one_of(st.floats(0.25, 4.0), st.sampled_from([1e-300, 2.0, 221.3, 2000.0]))
boxes = st.one_of(st.floats(0.1, 10.0), st.sampled_from([1e200, 1e308]))
huge = st.just(10**400)  # a JSON integer beyond double range

norms = st.one_of(
    _obj(kind=st.sampled_from(["euclidean", "l1"]), dim=st.integers(1, 3)),
    _obj(kind=st.just("lp_quasi"), dim=st.integers(1, 3),
         p=st.one_of(st.floats(0.2, 1.0), st.sampled_from([1e-9, 1e-300]))),
    # one weight per coordinate
    st.integers(1, 3).flatmap(lambda dim: _obj(
        kind=st.just("weighted"), dim=st.just(dim),
        weights=st.lists(st.floats(0.1, 3.0), min_size=dim, max_size=dim))),
)

# a scalar domain with a matching codomain norm, so that more stability runs go through;
# p only where the kind reads it
scalar_norms = st.one_of(_obj(kind=st.sampled_from(["euclidean", "l1"]), dim=st.just(1)),
                         _obj(kind=st.just("lp_quasi"), dim=st.just(1), p=st.floats(0.2, 1.0)))

equations = _obj(id=st.sampled_from(["fe1", "fe2", "fe3", "fe3_0"]),
                 n=_maybe(st.integers(3, 4)), a=_maybe(st.integers(-3, 3)))

leaves = st.one_of(
    _obj(family=st.just("quadratic_form"),
         coefficients=st.sampled_from([[[1.0]], [[1.0, 0.5], [0.5, 2.0]], [[1.0, 2.0]], "x"])),
    _obj(family=st.just("matrix_square"), k=st.integers(1, 2)),
    _obj(family=st.just("monomial"), degree=st.sampled_from([0, 1, 2, 3, 400])),
    _obj(family=st.just("constant"), value=small),
    _obj(family=st.sampled_from(["sine", "cosine", "odd_growth"]), d=_maybe(st.integers(1, 2))),
    _obj(family=st.just("matrix_sine_bump"),
         h_real=st.sampled_from([[[1.0, 0.3], [0.3, -0.5]], [[1.0]], [1.0, 2.0]])),
    _obj(family=st.just("tabulated"), table=st.just([0, 1, 4, 4, 1]), q=st.just(5)),
    _obj(family=st.sampled_from(["nope", "custom"])),
)

# values that are not objects, where a part, base, bump or inner belongs
not_objects = st.sampled_from([1, -2.5, True, "x", "ab", [1], []])


def _combined(base, junk=st.nothing()):
    """Perturbed, scaled, sum and stack mappings over `base`, each part possibly drawn from `junk`."""
    def extend(inner):
        part = st.one_of(inner, junk)
        return st.one_of(
            _obj(family=st.just("perturbed"), base=part, bump=part, amplitude=_maybe(small)),
            _obj(family=st.just("scaled"), inner=part, factor=small),
            _obj(family=st.sampled_from(["sum", "stack"]),
                 parts=st.one_of(st.lists(part, min_size=1, max_size=2), junk)),
        )
    return st.recursive(base, extend, max_leaves=3)


mappings = _combined(leaves, not_objects)
scalar_maps = _combined(st.one_of(
    _obj(family=st.just("quadratic_form"), coefficients=st.just([[1.0]])),
    _obj(family=st.sampled_from(["sine", "cosine", "odd_growth"])),
    _obj(family=st.just("monomial"), degree=st.sampled_from([1, 2, 3, 400])),
))

probes = st.one_of(
    _obj(count=st.integers(1, 3), box=_maybe(boxes)),
    st.lists(st.lists(small, min_size=1, max_size=2), min_size=1, max_size=2),
)

sections = _obj(direction=_maybe(st.sampled_from(["forward", "backward"])),
                m_max=_maybe(st.integers(1, 8)), tol=_maybe(positive),
                series_tol=_maybe(positive), bound_mode=_maybe(st.sampled_from(["quasi", "p"])),
                probes=_maybe(probes))

controls = _obj(variant=st.sampled_from(["power", "constant"]),
                epsilon=_maybe(positive), theta=_maybe(positive), r=_maybe(exponents),
                fit_trials=_maybe(st.integers(1, 5)), fit_box=_maybe(boxes))

groups = _obj(q=st.sampled_from([4, 5, 7]), d=st.just(1))

witnesses = _obj(x=_maybe(st.lists(small, max_size=3)), y=_maybe(st.lists(small, max_size=3)),
                 residual=_maybe(small))

KINDS = {
    "stability": _obj(equation=st.one_of(_obj(id=st.just("fe3"), n=st.integers(3, 4)), equations),
                      norm=st.one_of(scalar_norms, norms), domain_norm=_maybe(norms),
                      mapping=st.one_of(scalar_maps, mappings), control=controls,
                      stability=sections),
    "oracle": _obj(equation_a=equations, equation_b=equations, group=groups),
    "dimension": _obj(equation=equations, group=groups, expected_dim=st.integers(0, 3)),
    "inner_product": _obj(norm=norms, mode=st.sampled_from(["b", "c"]),
                          param=st.integers(-3, 5), trials=st.integers(1, 20),
                          expect=_maybe(st.sampled_from(["pass", "witness"])),
                          witness=_maybe(witnesses)),
    "covariance": _obj(mapping=mappings, n=st.integers(3, 4), probes=probes,
                       unitaries=_maybe(st.integers(1, 3)), tol=_maybe(st.one_of(huge, positive)),
                       norm=_maybe(norms), stability=_maybe(sections)),
    "deadzone": _obj(n=st.one_of(st.integers(3, 6), huge), theta=st.one_of(positive, huge),
                     K_sweep=st.lists(st.one_of(st.floats(1.0, 40.0), huge), min_size=1, max_size=4)),
    "bound_equality": _obj(grid=_obj(n=_maybe(st.lists(st.integers(3, 5), min_size=1, max_size=2)),
                                     r=_maybe(st.lists(exponents, min_size=1, max_size=2)),
                                     norm_x=_maybe(st.lists(st.one_of(st.floats(0.0, 3.0),
                                                                      st.just(1e308)),
                                                            min_size=1, max_size=2)),
                                     epsilon=_maybe(positive),
                                     # a tiny tolerance costs the full 10^5-term cap per row
                                     series_tol=_maybe(st.floats(1e-15, 1.0))),
                           tol=_maybe(st.one_of(positive, huge))),
}


# the audited numbers of a row; norm_x is left out, since a constant-budget probe
# passes correctly with a norm that overflowed
AUDITED = ("deviation", "bound", "margin")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_generated_config_runs_or_exits_2(kind):
    @FUZZ
    @given(body=KINDS[kind], seed=st.integers(0, 3))
    def check(body, seed):
        config = {"name": "fuzz", "kind": kind, "seed": seed, **body}
        try:
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = h.run_scenario(config, write_csv=False)
        except h.ScenarioValidationError:
            return
        assert res.exit_code in (h.EXIT_OK, h.EXIT_BOUND_VIOLATION, h.EXIT_EXPECTED_REJECTION)
        for row in res.rows:
            if row.status == h.STATUS_PASS:
                values = {k: getattr(row, k) for k in AUDITED if getattr(row, k) is not None}
                assert all(np.isfinite(v) for v in values.values()), (row.probe, values)

    check()
