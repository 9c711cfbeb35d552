"""The readers of sampled residual blocks against their per-tuple loops.

`fit_power_amplitude`, `fit_constant_level`, `empirical_sup_residual` and the
stability consistency check reduce whole (points, residuals) blocks.  The
references below are the per-tuple loops they replaced, over the per-tuple
view `sample_residuals` of the same stream, with the per-point norms written
out.  `_BLOCK_ENTRIES` is patched so that tuples cross block boundaries, and
every comparison is exact.
"""

import warnings

import numpy as np
import pytest

import quadstab as qs
from quadstab.equations import EquationSpec
from quadstab.stability import _consistency_warn

B = 5  # tuples per block under `small_blocks`


@pytest.fixture
def small_blocks(monkeypatch):
    """`blocks(f, eq)` sets the block budget so that the sampler evaluates B tuples per block."""
    def blocks(f, eq):
        entries = len(eq.terms()) * int(np.prod(f.domain.shape))
        monkeypatch.setattr("quadstab.equations._BLOCK_ENTRIES", B * entries)
        assert qs.mappings.block_length(entries) == B
    return blocks


def value_norm_reference(v):
    v = np.asarray(v)
    return float(abs(v)) if v.ndim == 0 else float(np.linalg.norm(v))


def point_norm_reference(x):
    return float(np.sqrt((qs.coordinate_magnitudes(x) ** 2).sum()))


def domain_norm_reference(spec):
    return point_norm_reference if spec is None else (lambda x: qs.norm_eval(spec, x))


def codomain_norm_reference(spec):
    return value_norm_reference if spec is None else (lambda v: qs.codomain_norm(spec, v))


def fit_power_reference(f, n, r, trials, seed, domain_norm=None, codomain=None):
    dnorm, cnorm = domain_norm_reference(domain_norm), codomain_norm_reference(codomain)
    eps = 0.0
    for pts, val in qs.sample_residuals(f, EquationSpec("fe3", n=n), trials, seed):
        weight = sum(dnorm(pt) ** r for pt in pts)
        if 0.0 < weight < np.inf:
            eps = max(eps, cnorm(val) / weight)
    return eps


def sup_reference(f, eq, trials, seed, norm=None):
    cnorm = codomain_norm_reference(norm)
    sup = 0.0
    for _, val in qs.sample_residuals(f, eq, trials, seed):
        sup = max(sup, cnorm(val))
    return sup


def budget_reference(phi, pts):
    if phi.variant == "power":
        dnorm = domain_norm_reference(phi.norm)
        return phi.epsilon * sum(dnorm(x) ** phi.r for x in pts)
    return phi.theta


def consistency_reference(f, phi, cfg, seed=0):
    """The warning text of the per-tuple check, or None."""
    try:
        for pts, val in qs.sample_residuals(f, EquationSpec("fe3", n=cfg.n), 48, seed):
            res = qs.codomain_norm(cfg.norm_spec, val)
            budget = budget_reference(phi, pts)
            if res > budget * (1.0 + 1e-9) + 1e-12:
                problem = (f"control function does not dominate sampled residuals "
                           f"({res:.6g} > {budget:.6g})")
                break
        else:
            return None
    except qs.NonFiniteResidualError as e:
        problem = f"control function cannot be checked: {e}"
    return f"{problem}; bounds may not hold"


def consistency_message(f, phi, cfg, seed=0):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _consistency_warn(f, phi, cfg, seed)
    assert len(caught) <= 1
    return str(caught[0].message) if caught else None


_M2 = [[1.0, 0.3], [0.3, 2.0]]
_H = [[1.0, 0.3], [0.3, -0.5]]
DOMAINS = {
    "real": (lambda: qs.Perturbed(qs.QuadraticForm(_M2), qs.Sine(2), 0.3),
             (qs.lp_quasi(0.5, 2), qs.weighted([1.0, 2.5]))),
    "complex": (lambda: qs.Perturbed(qs.QuadraticForm(_M2, complex_scalars=True),
                                     qs.Custom(lambda x: float(np.sin(np.abs(x)).sum()),
                                               qs.Domain(2, complex_scalars=True)), 0.3),
                (qs.lp_quasi(0.5, 2), qs.weighted([1.0, 2.5]))),
    "matrix": (lambda: qs.Perturbed(qs.MatrixSquare(2), qs.MatrixSineBump(_H), 0.1),
               (qs.lp_quasi(0.5, 1), qs.weighted([2.0]))),
}


@pytest.mark.parametrize("n", [3, 12])
@pytest.mark.parametrize("r", [1.0, 3.0])
@pytest.mark.parametrize("norm", ["none", "lp_quasi", "weighted"])
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_fit_power_amplitude_matches_per_tuple_loop(domain, norm, r, n, small_blocks):
    make, (lp, w) = DOMAINS[domain]
    f = make()
    small_blocks(f, EquationSpec("fe3", n=n))
    spec = {"none": None, "lp_quasi": lp, "weighted": w}[norm]
    for trials, codomain in ((2 * B + 3, None), (3 * B, qs.lp_quasi(0.5, 1))):
        got = qs.fit_power_amplitude(f, n, r, trials=trials, seed=trials,
                                     domain_norm=spec, codomain=codomain)
        assert got == fit_power_reference(f, n, r, trials, trials, spec, codomain)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_fit_constant_level_and_sup_match_per_tuple_loop(domain, small_blocks):
    f = DOMAINS[domain][0]()
    for spec in (None, qs.lp_quasi(0.5, 1), qs.euclidean(1)):
        small_blocks(f, EquationSpec("fe3", n=4))
        for trials in (1, B, 2 * B + 3):
            want = sup_reference(f, EquationSpec("fe3", n=4), trials, 7, spec)
            assert qs.fit_constant_level(f, 4, trials=trials, seed=7, codomain=spec) == want
            assert qs.empirical_sup_residual(f, EquationSpec("fe3", n=4), trials, 7, norm=spec) == want
        for eq in ("fe1", "fe2", "fe3_0:3"):
            eq = qs.parse_equation(eq)
            small_blocks(f, eq)
            assert (qs.empirical_sup_residual(f, eq, 2 * B + 1, 3, norm=spec)
                    == sup_reference(f, eq, 2 * B + 1, 3, spec))


def test_sup_of_vector_values_matches_linalg_norm(small_blocks):
    f = qs.Perturbed(qs.Stack([qs.QuadraticForm(_M2), qs.QuadraticForm(np.eye(2))]),
                     qs.Stack([qs.Sine(2), qs.Cosine(2)]), 0.2)
    eq = EquationSpec("fe3", n=3)
    small_blocks(f, eq)
    for spec in (None, qs.lp_quasi(0.5, 2), qs.weighted([1.0, 3.0])):
        assert qs.empirical_sup_residual(f, eq, 3 * B, 1, norm=spec) == sup_reference(f, eq, 3 * B, 1, spec)
    rng = np.random.default_rng(2)
    for v in (rng.standard_normal(()), rng.standard_normal(5) * 1e3,
              rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), np.array([3, 4])):
        assert qs.codomain_norm(None, v) == value_norm_reference(v)


def _cap_before_record(values, start):
    """Just above max(values[:i]), for the first i >= start where values[i] sets a clear record,
    or None when no tuple after `start` does."""
    for i in range(start, len(values)):
        head = float(np.max(values[:i]))
        if values[i] > head * 1.001:
            return head * (1.0 + 1e-6)
    return None


def _controls(f, cfg):
    """The first seed from 0 up whose 48 sampled tuples give a power and a constant control
    that the first offending tuple exceeds only after the first block, and the two controls."""
    for seed in range(10):
        samples = list(qs.sample_residuals(f, EquationSpec("fe3", n=cfg.n), 48, seed))
        res = np.array([qs.codomain_norm(cfg.norm_spec, val) for _, val in samples])
        weights = np.array([sum(point_norm_reference(x) for x in pts) for pts, _ in samples])
        eps, theta = _cap_before_record(res / weights, B + 1), _cap_before_record(res, B + 1)
        if eps is not None and theta is not None:
            return seed, (qs.power(eps, 1.0), qs.constant(theta))
    raise AssertionError("no seed gives a record after the first block")


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_consistency_check_names_the_first_offending_sample(domain, small_blocks):
    f = DOMAINS[domain][0]()
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), probes=(f.domain.zero(),))
    small_blocks(f, EquationSpec("fe3", n=3))
    seed, controls = _controls(f, cfg)
    for phi in controls:
        want = consistency_reference(f, phi, cfg, seed)
        assert want is not None and want.startswith("control function does not dominate")
        assert consistency_message(f, phi, cfg, seed) == want
    assert consistency_reference(f, qs.constant(1e300), cfg) is None
    assert consistency_message(f, qs.constant(1e300), cfg) is None


def _nan_at_tuple(k, n=3):
    """A real mapping whose twisted fe3 residual is NaN first at sampled tuple k.

    The twisted residual evaluates a tuple's n(n+1)/2 term arguments in one
    `f.batch` call per block, tuple after tuple, and Custom evaluates them in
    order; a fresh mapping restarts the count.
    """
    calls = []
    terms = n * (n + 1) // 2

    def fn(x):
        calls.append(1)
        return np.nan if len(calls) == k * terms + 1 else float(x @ x)

    return qs.Custom(fn, qs.Domain(1))


def test_non_finite_residual_in_a_later_block_raises_through_each_reader(small_blocks):
    small_blocks(_nan_at_tuple(0), EquationSpec("fe3", n=3))
    k, text = B + 2, f"non-finite residual at sample {B + 2} (box 10)"
    with pytest.raises(qs.NonFiniteResidualError) as ref:
        list(qs.sample_residuals(_nan_at_tuple(k), EquationSpec("fe3", n=3), 3 * B, 0))
    assert str(ref.value) == text
    readers = (lambda f: qs.fit_power_amplitude(f, 3, 1.0, trials=3 * B),
               lambda f: qs.fit_power_amplitude(f, 3, 2.0, trials=3 * B, domain_norm=qs.l1(1)),
               lambda f: qs.fit_constant_level(f, 3, trials=3 * B, codomain=qs.euclidean(1)),
               lambda f: qs.empirical_sup_residual(f, EquationSpec("fe3", n=3), 3 * B))
    for read in readers:
        with pytest.raises(qs.NonFiniteResidualError) as err:
            read(_nan_at_tuple(k))
        assert str(err.value) == text
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), probes=(np.zeros(1),))
    want = f"control function cannot be checked: {text}; bounds may not hold"
    assert consistency_reference(_nan_at_tuple(k), qs.constant(1e300), cfg) == want
    assert consistency_message(_nan_at_tuple(k), qs.constant(1e300), cfg) == want


def test_a_block_yields_its_finite_prefix_before_the_error(small_blocks):
    small_blocks(_nan_at_tuple(0), EquationSpec("fe3", n=3))
    blocks = qs.mappings._residual_blocks(_nan_at_tuple(B + 2), EquationSpec("fe3", n=3), 3 * B, 0)
    assert len(next(blocks)[1]) == B
    P, R = next(blocks)
    assert P.shape == (2, 3, 1) and np.isfinite(R).all()
    with pytest.raises(qs.NonFiniteResidualError, match=f"sample {B + 2} "):
        next(blocks)
