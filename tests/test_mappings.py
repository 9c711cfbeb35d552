import numpy as np
import pytest

import quadstab as qs
from quadstab import EquationSpec


def tsq():
    return qs.QuadraticForm([[1.0]])


def tcube():
    return qs.Monomial(3)


def test_residual_fe1_values():
    rng = np.random.default_rng(0)
    f = tsq()
    for _ in range(50):
        x, y = rng.uniform(-10, 10, 2)
        assert abs(qs.residual_fe1(f, [x], [y])) <= 1e-10 * (1 + x * x + y * y)
    assert qs.residual_fe1(tcube(), [1.0], [1.0]) == pytest.approx(4.0)
    # constant shift: residual at (0,0) is -2 f(0) = -2c
    c = 0.7
    fc = qs.SumMapping([tsq(), qs.ConstantMap(c)])
    assert qs.residual_fe1(fc, [0.0], [0.0]) == pytest.approx(-2.0 * c)


def test_residual_fe2_values():
    assert abs(qs.residual_fe2(tsq(), [1.3], [-0.2], [2.4])) <= 1e-9
    # 3(1+0+1) - ((-2)^3 + 1 + 1) = 6 - (-6)
    assert qs.residual_fe2(tcube(), [1.0], [0.0], [0.0]) == pytest.approx(12.0)


def test_fe2_equals_fe3_at_three():
    rng = np.random.default_rng(1)
    for f in (tcube(), qs.Perturbed(tsq(), qs.Sine(), 0.3)):
        for _ in range(100):
            x, y, z = ([v] for v in rng.uniform(-10, 10, 3))
            a = qs.residual_fe2(f, x, y, z)
            b = qs.residual_fe3(f, 3, (x, y, z))
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_residual_fe3_values():
    assert qs.residual_fe3(tsq(), 3, ([1.0], [0.0], [0.0])) == pytest.approx(0.0, abs=1e-12)
    assert qs.residual_fe3(tcube(), 3, ([1.0], [0.0], [0.0])) == pytest.approx(12.0)
    # all-zero tuple evaluates to (n*C(n,2) - n) f(0)
    c = 1.3
    fc = qs.SumMapping([tsq(), qs.ConstantMap(c)])
    for n in (3, 4, 5):
        expect = (n * (n * (n - 1) // 2) - n) * c
        got = qs.residual_fe3(fc, n, tuple([0.0] for _ in range(n)))
        assert got == pytest.approx(expect)
    with pytest.raises(ValueError):
        qs.residual_fe3(tsq(), 2, ([1.0], [0.0]))


def test_residual_fe3_0_values():
    assert qs.residual_fe3_0(tsq(), 2, [1.0], [1.0]) == pytest.approx(0.0, abs=1e-12)
    # 81 + 81 + 0 - 48 - 6
    assert qs.residual_fe3_0(qs.Monomial(4), 2, [1.0], [1.0]) == pytest.approx(108.0)
    with pytest.raises(ValueError):
        qs.residual_fe3_0(tsq(), 1, [1.0], [1.0])


def test_fe3_0_at_zero_is_negated_fe1():
    # the a = 0 instance is the two-point equation with both sides swapped
    rng = np.random.default_rng(2)
    for f in (tcube(), qs.Perturbed(tsq(), qs.Cosine(), 0.5)):
        for _ in range(100):
            x, y = ([v] for v in rng.uniform(-10, 10, 2))
            lhs = qs.residual_fe3_0(f, 0, x, y)
            rhs = -qs.residual_fe1(f, x, y)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_quadratic_forms_solve_everything():
    rng = np.random.default_rng(3)
    eqs = [EquationSpec("fe1"), EquationSpec("fe2"), EquationSpec("fe3", n=4),
           EquationSpec("fe3_0", a=3)]
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = rng.uniform(-1, 1, (d, d))
        f = qs.QuadraticForm((m + m.T) / 2)
        for eq in eqs:
            for _ in range(50):
                pts = tuple(rng.uniform(-10, 10, d) for _ in range(eq.arity))
                scale = 1.0 + sum(float(p @ p) for p in pts)
                assert abs(qs.equation_residual(f, eq, pts)) <= 1e-9 * scale


def test_approximate_remainder_matrix_square():
    rng = np.random.default_rng(4)
    f = qs.MatrixSquare(2)
    for trial in range(40):
        u = qs.sample_unitary(2, seed=trial)
        xs = tuple(qs.random_point(rng, d=1, k=2, box=5.0) for _ in range(3))
        val = qs.approximate_remainder(f, u, 3, xs)
        scale = 1.0 + sum(qs.coordinate_magnitudes(x)[0] ** 2 for x in xs)
        assert np.linalg.norm(val) <= 1e-9 * scale


def test_approximate_remainder_identity_unitary():
    rng = np.random.default_rng(5)
    f = qs.Perturbed(qs.MatrixSquare(2), qs.MatrixSineBump([[1.0, 0.0], [0.0, -1.0]]), 0.2)
    ident = np.eye(2, dtype=complex)
    for _ in range(20):
        xs = tuple(qs.random_point(rng, d=1, k=2, box=4.0) for _ in range(3))
        a = qs.approximate_remainder(f, ident, 3, xs)
        b = qs.residual_fe3(f, 3, xs)
        assert np.linalg.norm(a - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_approximate_remainder_covariance():
    # for the matrix square the twisted residual is the conjugated plain residual
    rng = np.random.default_rng(6)
    f = qs.MatrixSquare(2)
    ident = np.eye(2, dtype=complex)
    for trial in range(30):
        u = qs.sample_unitary(2, seed=100 + trial)
        xs = tuple(qs.random_point(rng, d=1, k=2, box=5.0) for _ in range(3))
        lhs = qs.approximate_remainder(f, u, 3, xs)
        rhs = qs.conjugate_value(u, qs.approximate_remainder(f, ident, 3, xs))
        scale = 1.0 + sum(qs.coordinate_magnitudes(x)[0] ** 2 for x in xs)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * scale


def test_approximate_remainder_scalar_hermitian_square():
    # k = 1: f(t) = |t|^2 is covariant under any unit scalar
    rng = np.random.default_rng(7)
    f = qs.QuadraticForm([[1.0]], complex_scalars=True)
    for theta in rng.uniform(0, 2 * np.pi, 25):
        u = np.exp(1j * theta)
        xs = tuple(rng.uniform(-10, 10, 1) + 1j * rng.uniform(-10, 10, 1) for _ in range(3))
        val = qs.approximate_remainder(f, u, 3, xs)
        scale = 1.0 + sum(abs(x[0]) ** 2 for x in xs)
        assert abs(val) <= 1e-9 * scale


def test_approximate_remainder_validation():
    f = qs.MatrixSquare(2)
    with pytest.raises(ValueError):
        qs.approximate_remainder(f, np.eye(3), 3, tuple(np.zeros((1, 2, 2)) for _ in range(3)))
    with pytest.raises(ValueError):
        qs.approximate_remainder(f, np.eye(2), 2, tuple(np.zeros((1, 2, 2)) for _ in range(2)))
    # the self-adjoint variant needs a unit-norm element
    xs = tuple(np.zeros((1, 2, 2)) for _ in range(3))
    assert np.allclose(qs.approximate_remainder(f, np.eye(2), 3, xs, mode="avg"), 0.0)
    with pytest.raises(ValueError, match="unit norm"):
        qs.approximate_remainder(f, 2.0 * np.eye(2), 3, xs, mode="avg")


def test_approximate_remainder_sa():
    f = qs.QuadraticForm([[1.0]], complex_scalars=True)
    rng = np.random.default_rng(8)
    for theta in rng.uniform(0, 2 * np.pi, 20):
        u = np.exp(1j * theta)
        xs = tuple(rng.uniform(-5, 5, 1) + 0j for _ in range(3))
        val = qs.approximate_remainder(f, u, 3, xs, mode="avg")
        assert abs(val) <= 1e-9 * (1.0 + sum(abs(x[0]) ** 2 for x in xs))
    # u = 1 reduces to the plain residual
    g = tcube()
    xs = ([1.0], [0.0], [0.0])
    assert qs.approximate_remainder(g, 1.0, 3, xs, mode="avg") == pytest.approx(
        qs.residual_fe3(g, 3, xs))
    # odd cubic: nonzero at u = +1, and exactly zero at u = -1 by oddness
    assert qs.approximate_remainder(g, 1.0, 3, xs, mode="avg") == pytest.approx(12.0)
    assert qs.approximate_remainder(g, -1.0, 3, xs, mode="avg") == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        qs.approximate_remainder(g, 2.0, 3, xs, mode="avg")


def test_empirical_sup_residual():
    f = qs.QuadraticForm([[1.0]])
    eq = EquationSpec("fe3", n=3)
    assert qs.empirical_sup_residual(f, eq, trials=200, seed=0) <= 1e-9 * 400
    # t^2 + sin t: residual is a sum of 9 + 3 unit-bounded sine terms
    g = qs.Perturbed(tsq(), qs.Sine(), 1.0)
    sup = qs.empirical_sup_residual(g, eq, trials=500, seed=1)
    assert 0.0 < sup <= 12.0
    with pytest.raises(ValueError):
        qs.empirical_sup_residual(g, eq, trials=0)
    # x^2 overflows on this box and the residual is inf - inf: an error, not a sup of 0
    with pytest.raises(qs.NonFiniteResidualError, match="non-finite residual at sample 0"):
        with np.errstate(all="ignore"):
            qs.empirical_sup_residual(f, EquationSpec("fe1"), box=1e200)


def test_empirical_sup_monotone_in_trials():
    g = qs.Perturbed(tsq(), qs.Sine(), 1.0)
    eq = EquationSpec("fe3", n=3)
    sups = [qs.empirical_sup_residual(g, eq, trials=t, seed=42) for t in (10, 50, 200, 400)]
    assert all(a <= b + 1e-15 for a, b in zip(sups, sups[1:]))


def test_evenness_and_scaling_of_exact_solutions():
    rng = np.random.default_rng(9)
    n = 3
    for _ in range(10):
        d = int(rng.integers(1, 4))
        m = rng.uniform(-1, 1, (d, d))
        f = qs.QuadraticForm((m + m.T) / 2)
        for _ in range(20):
            x = rng.uniform(-10, 10, d)
            fx = f(x)
            assert f(-x) == pytest.approx(fx, rel=1e-9, abs=1e-12)
            for k in (1, 2, 3):
                lhs = f((n - 1) ** k * x)
                assert lhs == pytest.approx((n - 1) ** (2 * k) * fx, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("domain", [qs.Domain(3), qs.Domain(2, complex_scalars=True),
                                    qs.Domain(2, k=2)], ids=["real", "complex", "matrix-k2"])
def test_domain_random_draws_like_random_point(domain):
    complex_coords = domain.complex_scalars or domain.matrix
    a, b = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(3):
        x = domain.random(a, box=4.0)
        assert x.shape == domain.shape == domain.zero().shape
        np.testing.assert_array_equal(x, qs.random_point(b, domain.d, domain.k, 4.0, complex_coords))


def test_domain_mismatch_rejected():
    f = qs.QuadraticForm(np.eye(2))
    with pytest.raises(ValueError, match="domain mismatch"):
        f([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="domain mismatch"):
        qs.residual_fe1(f, [1.0], [2.0])


def test_mapping_families():
    assert qs.Monomial(2)([3.0]) == 9.0
    assert qs.Sine()([np.pi / 2]) == pytest.approx(1.0)
    assert qs.Cosine()([0.0]) == pytest.approx(1.0)
    assert qs.OddGrowth()([2.0]) == pytest.approx(8.0 / 5.0)
    st = qs.Stack([qs.QuadraticForm([[1.0]]), qs.QuadraticForm([[2.0]])])
    assert np.allclose(st([2.0]), [4.0, 8.0])
    sc = qs.Scaled(qs.Sine(), 3.0)
    assert sc([np.pi / 2]) == pytest.approx(3.0)
    ms = qs.MatrixSquare(2)
    x = np.array([[[1.0, 2.0], [0.0, 1.0]]], dtype=complex)
    assert np.allclose(ms(x), x[0] @ x[0].conj().T)
    with pytest.raises(ValueError):
        qs.MatrixSineBump([[0.0, 1.0], [0.0, 0.0]])  # not self-adjoint
    with pytest.raises(ValueError, match="at least 2 x 2"):
        qs.MatrixSineBump([[1.0]])  # a 1 x 1 h has no matrix coordinate to act on


def test_tabulated_mapping():
    q = 5
    table = [(x * x) % q for x in range(q)]
    f = qs.Tabulated(table, q=q)
    assert f([2]) == 4
    assert f([7]) == 4  # arguments reduce mod q
    # integer residual arithmetic: exact quadratic table solves fe1 mod 5
    for x in range(q):
        for y in range(q):
            r = qs.residual_fe1(f, np.array([x]), np.array([y]))
            assert r % q == 0


def test_mapping_from_config_round_trip():
    cfgs = [
        {"family": "quadratic_form", "coefficients": [[1.0, 0.5], [0.5, 2.0]]},
        {"family": "matrix_square", "k": 2},
        {"family": "monomial", "degree": 3},
        {"family": "constant", "value": 2.0},
        {"family": "sine"},
        {"family": "cosine"},
        {"family": "odd_growth"},
        {"family": "matrix_sine_bump", "h_real": [[1.0, 0.0], [0.0, -1.0]]},
        {"family": "perturbed", "base": {"family": "quadratic_form", "coefficients": [[1.0]]},
         "bump": {"family": "sine"}, "amplitude": 0.1},
        {"family": "scaled", "factor": 2.0, "inner": {"family": "sine"}},
        {"family": "sum", "parts": [{"family": "sine"}, {"family": "cosine"}]},
        {"family": "stack", "parts": [{"family": "sine"}, {"family": "cosine"}]},
        {"family": "tabulated", "table": [0, 1, 4, 4, 1], "q": 5},
    ]
    for cfg in cfgs:
        m = qs.mapping_from_config(cfg)
        assert isinstance(m, qs.Mapping)
    with pytest.raises(ValueError):
        qs.mapping_from_config({"family": "custom"})


# ---------------------------------------------------------------------------
# the batch axis: Mapping.batch and the block sampler

_M2 = [[1.0, 0.3], [0.3, -0.5]]
_H = {"h_real": [[1.0, 0.2], [0.2, -0.7]], "h_imag": [[0.0, 0.4], [-0.4, 0.0]]}
_QF_REAL = {"family": "quadratic_form", "coefficients": _M2}
_QF_COMPLEX = {"family": "quadratic_form", "coefficients": _M2, "complex": True}
_QF_MATRIX = {"family": "quadratic_form", "coefficients": _M2, "k": 2}
_MSQ = {"family": "matrix_square", "k": 2}

# every family mapping_from_config builds, on real, complex and M_2(C) domains
_BATCH_CONFIGS = {
    "sine": {"family": "sine", "d": 3},
    "cosine": {"family": "cosine", "d": 2},
    "odd_growth": {"family": "odd_growth", "d": 2},
    "monomial": {"family": "monomial", "degree": 3, "d": 2},
    "constant": {"family": "constant", "value": 0.7, "d": 2},
    "quadratic_form-real": _QF_REAL,
    "quadratic_form-complex": _QF_COMPLEX,
    "quadratic_form-matrix": _QF_MATRIX,
    "matrix_square-k1": {"family": "matrix_square", "k": 1},
    "matrix_square-k2": _MSQ,
    "matrix_sine_bump": {"family": "matrix_sine_bump", **_H},
    "perturbed-real": {"family": "perturbed", "base": _QF_REAL,
                       "bump": {"family": "sine", "d": 2}, "amplitude": 0.2},
    "perturbed-matrix": {"family": "perturbed", "base": _MSQ,
                         "bump": {"family": "matrix_sine_bump", **_H}, "amplitude": 0.1},
    "scaled-complex": {"family": "scaled", "inner": _QF_COMPLEX, "factor": -1.5},
    "sum-matrix": {"family": "sum", "parts": [_MSQ, {"family": "matrix_sine_bump", **_H}]},
    "stack": {"family": "stack", "parts": [_QF_REAL, {"family": "cosine", "d": 2}]},
    "tabulated": {"family": "tabulated", "table": [(3 * i * i + i) % 7 for i in range(49)],
                  "q": 7, "d": 2},
}
_CUSTOM_DOMAINS = {"custom-real": qs.Domain(2), "custom-complex": qs.Domain(2, complex_scalars=True),
                   "custom-matrix": qs.Domain(1, k=2)}


def _batch_mapping(name):
    if name in _CUSTOM_DOMAINS:
        return qs.Custom(lambda x: np.sin(x).sum() * np.abs(x).max() + (x * x.conj()).real.sum(),
                         _CUSTOM_DOMAINS[name])
    return qs.mapping_from_config(_BATCH_CONFIGS[name])


def _pointwise(f, x):
    """The one-point formulas the families evaluated before the batch axis, as a reference."""
    x = f._coerce(x)
    if isinstance(f, qs.QuadraticForm):
        M = f.coefficients
        if x.ndim == 1:
            return float(np.real(np.conj(x) @ M @ x)) if np.iscomplexobj(x) else float(x @ M @ x)
        out = np.zeros((f.domain.k, f.domain.k), dtype=complex)
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                if M[i, j] != 0.0:
                    out += M[i, j] * (x[i] @ x[j].conj().T)
        return out
    if isinstance(f, qs.MatrixSquare):
        return float(np.abs(x[0]) ** 2) if x.ndim == 1 else x[0] @ x[0].conj().T
    if isinstance(f, qs.mappings.Coordinatewise):
        return float(f.g(x).sum())
    if isinstance(f, qs.ConstantMap):
        return f.value
    if isinstance(f, qs.MatrixSineBump):
        return np.sin(float(np.trace(x[0]).real)) * f.h
    if isinstance(f, qs.Perturbed):
        return _pointwise(f.base, x) + f.amplitude * np.asarray(_pointwise(f.bump, x))
    if isinstance(f, qs.Scaled):
        return f.factor * np.asarray(_pointwise(f.inner, x))
    if isinstance(f, qs.SumMapping):
        return sum(np.asarray(_pointwise(p, x)) for p in f.parts)
    if isinstance(f, qs.Stack):
        return np.array([float(_pointwise(p, x)) for p in f.parts])
    return f(x)  # Custom and Tabulated keep their one-point __call__


@pytest.mark.parametrize("B", [1, 7])
@pytest.mark.parametrize("name", sorted(_BATCH_CONFIGS) + sorted(_CUSTOM_DOMAINS))
def test_batch_matches_pointwise_calls(name, B):
    """Every kernel keeps the per-point reduction order, so equality is exact (0 ulp)."""
    f = _batch_mapping(name)
    rng = np.random.default_rng(B)
    if isinstance(f, qs.Tabulated):
        X = rng.integers(-20, 20, (B, f.domain.d))
    else:
        X = np.stack([f.domain.random(rng, box=4.0) for _ in range(B)])
    got = f.batch(X)
    assert got.shape[0] == B
    for i in range(B):
        value = f(X[i])
        np.testing.assert_array_equal(got[i], np.asarray(value))
        np.testing.assert_array_equal(got[i], np.asarray(_pointwise(f, X[i])))
        if np.ndim(value) == 0 and not isinstance(f, qs.Custom):
            assert isinstance(value, (float, int))


def test_combinators_of_one_point_parts():
    part = qs.Custom(lambda x: float(x @ x), qs.Domain(2))
    X = np.random.default_rng(3).uniform(-4.0, 4.0, (5, 2))
    square = np.array([x @ x for x in X])
    for f, want in ((qs.Perturbed(part, part, 0.5), 1.5 * square), (qs.Scaled(part, 2.0), 2.0 * square),
                    (qs.SumMapping([part, part]), 2.0 * square),
                    (qs.Stack([part, part]), np.stack([square, square], axis=1))):
        got = f.batch(X)
        np.testing.assert_allclose(got, want, rtol=1e-15)
        for i in range(len(X)):
            np.testing.assert_array_equal(got[i], np.asarray(f(X[i])))


def test_mapping_needs_eval_or_call():
    class Bare(qs.Mapping):
        domain = qs.Domain(1)

    with pytest.raises(NotImplementedError, match="neither _eval nor __call__"):
        Bare()(1.0)


def test_batch_refuses_points_off_the_domain():
    f = qs.QuadraticForm(np.eye(2))
    with pytest.raises(ValueError, match="domain mismatch"):
        f.batch(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="domain mismatch"):
        qs.Custom(lambda x: 0.0, qs.Domain(2)).batch(np.zeros(2))


def _reference_unitary(rng, domain):
    """Per-tuple unitary draw, with its own per-matrix QR."""
    if domain.matrix:
        k = domain.k
        z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        return q * (d / np.abs(d))
    if domain.complex_scalars:
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return float(rng.choice((-1.0, 1.0)))


def _reference_samples(f, eq, trials, seed, box=10.0):
    """The sampler one tuple at a time: its points and unitaries, and the per-tuple residuals."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        pts = tuple(f.domain.random(rng, box=box) for _ in range(eq.arity))
        if eq.id == "fe3":
            u = _reference_unitary(rng, f.domain)
            out.append((pts, u, qs.approximate_remainder(f, u, eq.n, pts)))
        else:
            out.append((pts, None, qs.equation_residual(f, eq, pts)))
    return out


_SAMPLER_MAPPINGS = {
    "real": lambda: qs.Perturbed(qs.QuadraticForm(_M2), qs.Sine(2), 0.3),
    "complex": lambda: qs.QuadraticForm(_M2, complex_scalars=True),
    "matrix": lambda: qs.mapping_from_config(_BATCH_CONFIGS["perturbed-matrix"]),
}


@pytest.mark.parametrize("eq", ["fe1", "fe2", "fe3:4", "fe3_0:3"])
@pytest.mark.parametrize("kind", sorted(_SAMPLER_MAPPINGS))
def test_sample_residuals_match_per_tuple_reference_across_blocks(kind, eq, monkeypatch):
    f = _SAMPLER_MAPPINGS[kind]()
    eq = qs.parse_equation(eq)
    entries = len(eq.terms()) * int(np.prod(f.domain.shape))
    B = 5  # a small element budget makes blocks of 5 tuples
    monkeypatch.setattr("quadstab.equations._BLOCK_ENTRIES", B * entries)
    assert qs.mappings.block_length(entries) == B
    blocks = []
    kernel = qs.mappings._residuals
    monkeypatch.setattr("quadstab.mappings._residuals",
                        lambda f, P, terms=None, U=None, hats=None:
                        blocks.append(U) or kernel(f, P, terms, U, hats))
    for trials in (1, B - 1, B, B + 1, 2 * B + 3):
        want = _reference_samples(f, eq, trials, seed=trials)
        blocks.clear()
        got = list(qs.sample_residuals(f, eq, trials, seed=trials))
        assert len(got) == trials and len(blocks) == -(-trials // B)
        for (pts, val), (ref_pts, _, ref_val) in zip(got, want):
            assert np.stack(pts).tobytes() == np.stack(ref_pts).tobytes()
            scale = 1.0 + np.abs(ref_val).max()
            assert np.abs(np.asarray(val) - ref_val).max() <= 1e-12 * scale
        if eq.id == "fe3":
            drawn = np.concatenate([np.atleast_1d(U) for U in blocks])
            assert drawn.tobytes() == np.array([u for _, u, _ in want]).tobytes()


def test_non_finite_residual_in_a_later_block_names_its_sample(monkeypatch):
    eq = EquationSpec("fe1")
    B, T = 4, len(eq.terms())
    monkeypatch.setattr("quadstab.equations._BLOCK_ENTRIES", B * T)
    calls = []

    def fn(x):  # NaN on the first term of tuple B + 2, in the second block
        calls.append(1)
        return np.nan if len(calls) == (B + 2) * T + 1 else float(x @ x)

    f = qs.Custom(fn, qs.Domain(1))
    seen = []
    with pytest.raises(qs.NonFiniteResidualError, match=f"non-finite residual at sample {B + 2} "):
        for sample in qs.sample_residuals(f, eq, 3 * B, seed=0):
            seen.append(sample)
    assert len(seen) == B + 2
    assert all(np.isfinite(val) for _, val in seen)


def test_fe3_64_residual_blocks_stay_small():
    import tracemalloc

    f = qs.mapping_from_config(_BATCH_CONFIGS["perturbed-matrix"])
    eq = EquationSpec("fe3", n=64)
    block = qs.mappings.block_length(len(eq.terms()) * int(np.prod(f.domain.shape)))
    qs.empirical_sup_residual(f, eq, trials=1, seed=0)  # warm the term cache
    tracemalloc.start()
    try:
        sup = qs.empirical_sup_residual(f, eq, trials=2 * block, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(sup) and sup > 0.0
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_real_sign_draw_keeps_the_stream_of_choice():
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    domain = qs.Domain(2)
    got = [qs.mappings.draw_unitary(a, domain) for _ in range(100_000)]
    assert got == [float(b.choice((-1.0, 1.0))) for _ in range(100_000)]
    assert all(type(u) is float for u in got[:100])
    assert a.random() == b.random()  # the draw after them
