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
