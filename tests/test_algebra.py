import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadstab as qs

ATOL = 1e-10

SPECS = [
    qs.euclidean(3),
    qs.l1(2),
    qs.lp_quasi(0.5, 2),
    qs.lp_quasi(0.75, 3),
    qs.weighted([1.0, 2.0, 3.0]),
]


def test_norm_examples():
    assert qs.norm_eval(qs.euclidean(2), [3.0, 4.0]) == pytest.approx(5.0, abs=ATOL)
    # (|1|^{1/2} + |1|^{1/2})^2 = 4
    assert qs.norm_eval(qs.lp_quasi(0.5, 2), [1.0, 1.0]) == pytest.approx(4.0, abs=ATOL)
    for spec in SPECS:
        assert qs.norm_eval(spec, np.zeros(spec.dim)) == 0.0
    # matrix coordinates contribute Frobenius norms before aggregation
    point = np.stack([np.eye(2), 2.0 * np.eye(2)])
    assert qs.norm_eval(qs.euclidean(2), point) == pytest.approx(np.sqrt(10.0))
    assert qs.norm_eval(qs.l1(2), point) == pytest.approx(np.sqrt(2.0) * 3.0)


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        qs.norm_eval(qs.euclidean(2), [1.0, 2.0, 3.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        qs.QuasiNormSpec("lp_quasi", 2, p=1.5)
    with pytest.raises(ValueError):
        qs.QuasiNormSpec("nosuch", 2)
    with pytest.raises(ValueError):
        qs.weighted([1.0, -1.0])
    # K is derived from the kind and p, never given
    for p in (0.3, 0.5, 0.75, 1.0):
        assert qs.lp_quasi(p, 2).K == 2 ** (1 / p - 1)
    assert qs.euclidean(2).K == qs.l1(2).K == qs.weighted([1.0, 2.0]).K == 1.0
    with pytest.raises(TypeError):
        qs.QuasiNormSpec("euclidean", 2, K=3.0)


def test_spec_refuses_fields_its_kind_does_not_read():
    for kind in ("euclidean", "l1", "weighted"):
        with pytest.raises(ValueError, match="reads no p"):
            qs.QuasiNormSpec(kind, 2, p=0.5, weights=(1.0, 1.0) if kind == "weighted" else None)
    for kind in ("euclidean", "l1", "lp_quasi"):
        with pytest.raises(ValueError, match="reads no weights"):
            qs.QuasiNormSpec(kind, 2, weights=(1.0, 1.0))
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            qs.weighted([1.0, bad])
    assert qs.QuasiNormSpec("euclidean", 2, p=1.0) == qs.euclidean(2)


def test_axioms_on_random_points():
    # all four axioms on 10^4 points per registered spec
    rng = np.random.default_rng(0)
    for spec in SPECS:
        xs = rng.uniform(-10.0, 10.0, size=(10_000, spec.dim))
        ys = rng.uniform(-10.0, 10.0, size=(10_000, spec.dim))
        lams = rng.uniform(-3.0, 3.0, size=10_000)
        for x, y, lam in zip(xs, ys, lams):
            nx = qs.norm_eval(spec, x)
            ny = qs.norm_eval(spec, y)
            assert nx >= 0.0
            if np.any(x != 0.0):
                assert nx > 0.0
            scale = max(1.0, nx)
            assert abs(qs.norm_eval(spec, lam * x) - abs(lam) * nx) <= ATOL * scale * max(1.0, abs(lam))
            assert qs.norm_eval(spec, x + y) <= spec.K * (nx + ny) + ATOL * (1.0 + nx + ny)
            if spec.kind == "lp_quasi":
                p = spec.p
                assert qs.norm_eval(spec, x + y) ** p <= nx**p + ny**p + ATOL * (1.0 + nx + ny)


def test_concavity_estimates():
    assert qs.concavity_modulus_estimate(qs.euclidean(2), trials=500, seed=1) <= 1.0 + 1e-12
    assert qs.concavity_modulus_estimate(qs.l1(2), trials=500, seed=1) <= 1.0 + 1e-12
    spec = qs.lp_quasi(0.5, 2)

    def sampler(rng):
        if not hasattr(sampler, "fired"):
            sampler.fired = True
            return np.array([1.0, 0.0]), np.array([0.0, 1.0])
        return rng.uniform(-10, 10, 2), rng.uniform(-10, 10, 2)

    est = qs.concavity_modulus_estimate(spec, sampler=sampler, trials=300, seed=2)
    # the injected pair attains the modulus exactly: ||e1+e2|| = 4, sum of norms = 2
    assert est == pytest.approx(2.0, abs=1e-12)
    assert est <= spec.K + 1e-12


def test_concavity_needs_trials():
    with pytest.raises(ValueError):
        qs.concavity_modulus_estimate(qs.euclidean(2), trials=0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sample_unitary(k):
    u = qs.sample_unitary(k, seed=3)
    u2 = qs.sample_unitary(k, seed=3)
    assert np.array_equal(u, u2)
    ident = np.eye(k)
    assert np.linalg.norm(u @ u.conj().T - ident) <= 1e-10
    if k > 1:
        other = qs.sample_unitary(k, seed=4)
        assert not np.allclose(u, other)


def test_sample_unitary_scalar_modulus():
    u = qs.sample_unitary(1, seed=9)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_act_preserves_coordinate_norms():
    rng = np.random.default_rng(5)
    for k in (2, 3):
        u = qs.sample_unitary(k, seed=11 + k)
        x = qs.random_point(rng, d=2, k=k)
        before = qs.coordinate_magnitudes(x)
        after = qs.coordinate_magnitudes(qs.act(u, x))
        assert np.allclose(before, after, atol=1e-10)


def test_hat_values():
    assert qs.hat(3 + 4j) == pytest.approx(25.0, abs=1e-12)
    ident = np.eye(2, dtype=complex)
    for mode in ("left", "right", "avg"):
        assert np.allclose(qs.hat(ident, mode), ident)
    a = np.diag([1.0, 1.0j])
    assert np.allclose(qs.hat(a, "avg"), np.eye(2))


def test_hat_self_adjoint_psd():
    rng = np.random.default_rng(6)
    for mode in ("left", "right", "avg"):
        for _ in range(25):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = qs.hat(a, mode)
            assert np.linalg.norm(h - h.conj().T) <= 1e-10 * max(1.0, np.linalg.norm(h))
            assert np.linalg.eigvalsh(h).min() >= -1e-10 * max(1.0, np.linalg.norm(h))


def test_hat_bad_mode():
    with pytest.raises(ValueError):
        qs.hat(np.eye(2), "sideways")
    with pytest.raises(ValueError):
        qs.hat(1.0, "sideways")


def test_conjugate_value_scalar_degeneration():
    # |u| = 1 scalars act trivially on codomain values
    u = np.exp(0.7j)
    b = np.array([1.5, -2.0])
    assert np.allclose(qs.conjugate_value(u, b), b)


def test_block_action_and_conjugation_equal_the_one_element_forms():
    rng = np.random.default_rng(8)
    B = 9
    for k in (2, 3):
        U = np.stack([qs.sample_unitary(k, seed=s) for s in range(B)])
        X = rng.normal(size=(B, 2, k, k)) + 1j * rng.normal(size=(B, 2, k, k))
        V = rng.normal(size=(B, k, k)) + 1j * rng.normal(size=(B, k, k))
        acted, conjugated = qs.algebra.act_block(U, X), qs.algebra.conjugate_block(U, V)
        for i in range(B):
            assert np.array_equal(acted[i], qs.act(U[i], X[i]))
            assert np.array_equal(conjugated[i], qs.conjugate_value(U[i], V[i]))
    for U in (np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, B)), rng.choice([-1.0, 1.0], B)):
        for X in (rng.normal(size=(B, 3)), rng.normal(size=(B, 1)) + 1j * rng.normal(size=(B, 1)),
                  rng.normal(size=(B, 2, 2, 2)) + 0j):
            acted = qs.algebra.act_block(U, X)
            assert all(np.array_equal(acted[i], qs.act(U[i], X[i])) for i in range(B))
        for V in (rng.normal(size=B), rng.normal(size=(B, 2)), rng.normal(size=(B, 2, 2)) + 1j):
            conjugated = qs.algebra.conjugate_block(U, V)
            assert all(np.array_equal(conjugated[i], qs.conjugate_value(U[i], V[i]))
                       for i in range(B))


def test_action_and_conjugation_refusals():
    u = qs.sample_unitary(2, seed=1)
    with pytest.raises(ValueError, match="scalar module coordinates need a scalar algebra element"):
        qs.act(u, np.ones(3))
    with pytest.raises(ValueError, match=r"algebra dimension mismatch: element \(2, 2\), "
                                         r"coordinates \(3, 3\)"):
        qs.act(u, np.ones((1, 3, 3)))
    with pytest.raises(ValueError, match="module points are 1-d or 3-d arrays"):
        qs.act(1.0, np.ones((2, 2)))
    for value in (np.ones(2), np.ones((3, 3)), 1.0):
        with pytest.raises(ValueError, match="matrix conjugation needs a matching square codomain value"):
            qs.conjugate_value(u, value)
    # the twisted residual refuses a vector-valued mapping on a matrix module the same way
    f = qs.Custom(lambda x: np.ones(2), qs.Domain(1, k=2))
    with pytest.raises(ValueError, match="matrix conjugation needs a matching square codomain value"):
        qs.approximate_remainder(f, u, 3, [np.eye(2)[np.newaxis]] * 3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=2),
    st.lists(st.floats(-50, 50), min_size=2, max_size=2),
    st.floats(-5, 5),
)
def test_axioms_property(xs, ys, lam):
    x = np.array(xs)
    y = np.array(ys)
    for spec in (qs.euclidean(2), qs.lp_quasi(0.5, 2)):
        nx = qs.norm_eval(spec, x)
        ny = qs.norm_eval(spec, y)
        assert abs(qs.norm_eval(spec, lam * x) - abs(lam) * nx) <= 1e-9 * (1.0 + abs(lam) * nx)
        assert qs.norm_eval(spec, x + y) <= spec.K * (nx + ny) + 1e-9 * (1.0 + nx + ny)


_NORM_KINDS = [qs.euclidean(3), qs.l1(3), qs.weighted([0.5, 1.0, 2.5]), qs.lp_quasi(0.37, 3),
               qs.lp_quasi(0.5, 3)]


@pytest.mark.parametrize("spec", _NORM_KINDS, ids=lambda s: f"{s.kind}-{s.p}")
def test_batched_norms_equal_per_point_norms(spec):
    from quadstab.algebra import _magnitudes, _norms

    rng = np.random.default_rng(4)
    X = rng.uniform(-10.0, 10.0, (64, 3))
    Z = rng.normal(size=(64, 3, 2, 2)) + 1j * rng.normal(size=(64, 3, 2, 2))
    for pts, matrix in ((X, False), (Z, True)):
        got = _norms(spec, _magnitudes(pts, matrix))
        assert got.tobytes() == np.array([qs.norm_eval(spec, p) for p in pts]).tobytes()


def _reference_concavity(spec, sampler, trials, seed):
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        x, y = (np.asarray(v) for v in sampler(rng))
        denom = qs.norm_eval(spec, x) + qs.norm_eval(spec, y)
        if denom > 0.0:
            best = max(best, qs.norm_eval(spec, x + y) / denom)
    return best


@pytest.mark.parametrize("spec", _NORM_KINDS, ids=lambda s: f"{s.kind}-{s.p}")
def test_concavity_estimate_matches_per_pair_reference(spec):
    pairs = lambda r: (r.uniform(-10.0, 10.0, spec.dim), r.uniform(-10.0, 10.0, spec.dim))
    assert (qs.concavity_modulus_estimate(spec, trials=300, seed=5)
            == _reference_concavity(spec, pairs, 300, 5))
    matrices = lambda r: tuple(r.normal(size=(spec.dim, 2, 2)) + 0j for _ in range(2))
    assert (qs.concavity_modulus_estimate(spec, sampler=matrices, trials=50, seed=6)
            == _reference_concavity(spec, matrices, 50, 6))
    zero = lambda r: (np.zeros(spec.dim), np.zeros(spec.dim))  # every pair skipped
    assert qs.concavity_modulus_estimate(spec, sampler=zero, trials=3) == 0.0


def _two_call_point(rng, d, k, box, complex_coords):
    # the draw random_point made before it became _draw_points of one point
    if complex_coords is None:
        complex_coords = k > 1
    shape = (d,) if k == 1 else (d, k, k)
    x = rng.uniform(-box, box, shape)
    if complex_coords:
        x = x + 1j * rng.uniform(-box, box, shape)
    return x


@pytest.mark.parametrize("complex_coords", [None, True, False])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_point_draws_as_the_two_call_draw(d, k, complex_coords):
    a, b = np.random.default_rng(29), np.random.default_rng(29)
    for _ in range(2):
        got = qs.random_point(a, d, k, 4.0, complex_coords)
        want = _two_call_point(b, d, k, 4.0, complex_coords)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    assert a.uniform() == b.uniform()  # the stream goes on in step

