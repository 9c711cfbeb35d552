import numpy as np
import pytest

import quadstab as qs


def naive_forward_sum(phi, n, K, x, terms=400):
    # independent reimplementation of the forward series, straight loop
    lam = n - 1
    total = 0.0
    for i in range(terms):
        total += K**i * qs.phi_cap(phi, n, np.asarray(x) * lam**i) / lam ** (2 * i)
    return K / lam**2 * total


def naive_backward_sum(phi, n, K, x, terms=400):
    lam = n - 1
    total = 0.0
    for i in range(1, terms + 1):
        total += K**i * lam ** (2 * i) * qs.phi_cap(phi, n, np.asarray(x) / lam**i)
    return total / lam**2


def naive_forward_sum_p(phi, n, p, x, terms=400):
    lam = n - 1
    total = 0.0
    for i in range(terms):
        total += (qs.phi_cap(phi, n, np.asarray(x) * lam**i) / lam ** (2 * i)) ** p
    return total ** (1.0 / p) / lam**2


def phi_cap_enumerated(phi, n, x):
    # reference for phi_cap: literal slot enumeration, ignoring closed-form shortcuts
    x = np.asarray(x)
    zero = np.zeros_like(x)

    def component(i, pt):
        return phi.evaluate([pt if j == i else zero for j in range(1, n + 1)])

    comps = [component(i, x) for i in range(1, n + 1)]
    tilde = min(comps[i] + comps[i + 1] for i in range(n - 1))
    weights = qs.cap_weights(n)
    return min(component(i, -x) + weights[i - 1] * tilde for i in range(1, n + 1))


def test_phi_component_values():
    phi = qs.power(2.0, 1.5)
    x = np.array([2.0])
    for i in (1, 2, 3):
        assert qs.phi_component(phi, 3, i, x) == pytest.approx(2.0 * 2.0**1.5)
    assert qs.phi_component(qs.constant(0.7), 4, 2, x) == pytest.approx(0.7)
    assert qs.phi_component(phi, 3, 1, np.array([0.0])) == 0.0
    with pytest.raises(ValueError):
        qs.phi_component(phi, 3, 4, x)
    with pytest.raises(ValueError):
        qs.phi_component(phi, 3, 0, x)


def test_phi_tilde_values():
    x = np.array([1.0])
    assert qs.phi_tilde(qs.power(1.0, 1.0), 3, x) == pytest.approx(2.0)
    assert qs.phi_tilde(qs.constant(0.5), 5, x) == pytest.approx(1.0)

    # custom control: zero whenever only slot 1 is active, large otherwise
    def fn(xs):
        active = [i for i, p in enumerate(xs) if np.any(np.asarray(p) != 0)]
        return 0.0 if active == [0] else 7.0

    phi = qs.custom_control(fn)
    assert qs.phi_tilde(phi, 3, x) == pytest.approx(7.0)  # phi_1 + phi_2 = 0 + 7


def test_phi_cap_values():
    x = np.array([1.0])
    n = 3
    # enumerated weights |(n^2+1)-(i+1)n| for i=1..n are {4,1,2}; min at i = 2
    weights = [w * n for w in qs.cap_weights(n)]
    assert weights == pytest.approx([4.0, 1.0, 2.0])
    assert int(np.argmin(weights)) + 1 == n - 1
    assert qs.phi_cap(qs.power(1.0, 1.0), 3, x) == pytest.approx(1.0 + 2.0 / 3.0)
    assert qs.phi_cap(qs.constant(1.0), 3, x) == pytest.approx(5.0 / 3.0)
    assert qs.phi_cap(qs.constant(2.0), 5, x) == pytest.approx((5 + 2) / 5 * 2.0)


def test_phi_cap_fast_path_matches_enumeration():
    rng = np.random.default_rng(0)
    for phi in (qs.power(0.8, 1.3), qs.power(2.0, 3.0), qs.constant(2.5)):
        for n in (3, 4, 5):
            for _ in range(10):
                x = rng.uniform(-5, 5, 2)
                a = qs.phi_cap(phi, n, x)
                b = phi_cap_enumerated(phi, n, x)
                assert a == pytest.approx(b, rel=1e-12)


def test_series_bound_forward_values():
    x = np.array([1.0])
    phi = qs.power(1.0, 1.0)
    got = qs.series_bound_forward(phi, 3, 1.0, x, series_tol=1e-15)
    assert got == pytest.approx(5.0 / 6.0, rel=1e-12)
    assert got == pytest.approx(naive_forward_sum(phi, 3, 1.0, x), rel=1e-12)
    const = qs.constant(1.0)
    got_c = qs.series_bound_forward(const, 3, 1.0, x, series_tol=1e-15)
    assert got_c == pytest.approx(5.0 / 9.0, rel=1e-12)
    assert got_c == pytest.approx(naive_forward_sum(const, 3, 1.0, x), rel=1e-12)
    with pytest.raises(qs.DivergenceError):
        qs.series_bound_forward(qs.power(1.0, 2.0), 3, 1.0, x)


def test_series_bound_backward_values():
    x = np.array([1.0])
    phi = qs.power(1.0, 3.0)
    got = qs.series_bound_backward(phi, 3, 1.0, x, series_tol=1e-15)
    assert got == pytest.approx(5.0 / 12.0, rel=1e-12)
    assert got == pytest.approx(naive_backward_sum(phi, 3, 1.0, x), rel=1e-12)
    x2 = np.array([2.0])
    got2 = qs.series_bound_backward(qs.power(1.0, 4.0), 3, 1.0, x2, series_tol=1e-15)
    assert got2 == pytest.approx(20.0 / 9.0, rel=1e-12)
    with pytest.raises(qs.DivergenceError):
        qs.series_bound_backward(qs.constant(1.0), 3, 1.0, x)


def test_series_bound_p_values():
    x = np.array([1.0])
    phi = qs.power(1.0, 1.0)
    # p = 1 equals the K = 1 quasi-norm bound
    assert qs.series_bound_forward_p(phi, 3, 1.0, x, 1e-15) == pytest.approx(
        qs.series_bound_forward(phi, 3, 1.0, x, 1e-15), rel=1e-12)
    # p = 1/2 closed form: (n+2) eps / (n [ (n-1)^(2p) - (n-1)^(rp) ]^(1/p))
    expect = 5.0 / (3.0 * (2.0 - np.sqrt(2.0)) ** 2)
    got = qs.series_bound_forward_p(phi, 3, 0.5, x, 1e-15)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(naive_forward_sum_p(phi, 3, 0.5, x), rel=1e-10)
    with pytest.raises(qs.DivergenceError):
        qs.series_bound_forward_p(qs.power(1.0, 2.0), 3, 0.5, x)
    with pytest.raises(qs.DivergenceError):
        qs.series_bound_backward_p(qs.power(1.0, 1.0), 3, 0.5, x)
    got_b = qs.series_bound_backward_p(qs.power(1.0, 3.0), 3, 0.5, x, 1e-15)
    expect_b = 5.0 / (3.0 * (2.0**1.5 - 2.0) ** 2)
    assert got_b == pytest.approx(expect_b, rel=1e-12)


def test_series_bounds_vanish_at_zero():
    zero = np.array([0.0])
    assert qs.series_bound_forward(qs.power(1.0, 1.0), 3, 1.0, zero) == 0.0
    assert qs.series_bound_backward(qs.power(1.0, 3.0), 3, 1.0, zero) == 0.0
    assert qs.series_bound_forward_p(qs.power(1.0, 1.0), 3, 0.5, zero) == 0.0
    # a constant budget does not vanish at the origin
    assert qs.series_bound_forward(qs.constant(1.0), 3, 1.0, zero) > 0.0


def test_custom_control_series_matches_power():
    x = np.array([1.0])
    fn = lambda xs: sum(float(np.abs(np.asarray(p)).sum()) for p in xs)  # eps=1, r=1 on d=1
    phi = qs.custom_control(fn)
    got = qs.series_bound_forward(phi, 3, 1.0, x, series_tol=1e-13)
    assert got == pytest.approx(5.0 / 6.0, rel=1e-10)
    diverging = qs.custom_control(lambda xs: 1.0)  # constant 1, backward diverges
    with pytest.raises(qs.DivergenceError):
        qs.series_bound_backward(diverging, 3, 1.0, x)


def test_closed_form_bounds_values():
    assert qs.closed_form_bounds(3, "power", "forward", norm_x=1.0, K=1.0, epsilon=1.0,
                                 r=1.0) == pytest.approx(5.0 / 6.0)
    assert qs.closed_form_bounds(3, "constant", "forward", K=2.0,
                                 theta=1.0) == pytest.approx(5.0 / 3.0)
    assert qs.closed_form_bounds(3, "power", "backward", norm_x=2.0, K=1.0, epsilon=1.0,
                                 r=4.0) == pytest.approx(20.0 / 9.0)
    assert qs.closed_form_bounds(3, "power", "forward", norm_x=1.0, p=0.5, epsilon=1.0,
                                 r=1.0) == pytest.approx(5.0 / (3.0 * (2.0 - np.sqrt(2.0)) ** 2))


def test_closed_form_dead_zone():
    with pytest.raises(qs.OpenProblemError) as err:
        qs.closed_form_bounds(3, "constant", "forward", K=4.0, theta=1.0)
    assert "open-problem region" in str(err.value)
    with pytest.raises(qs.OpenProblemError):
        qs.closed_form_bounds(3, "power", "forward", norm_x=1.0, K=1.0, epsilon=1.0, r=2.0)
    with pytest.raises(qs.OpenProblemError):
        qs.closed_form_bounds(3, "power", "forward", norm_x=1.0, p=0.5, epsilon=1.0, r=2.0)
    # K = 2, n = 3: dead zone is 2 - log2(2) <= r <= 2 + log2(2), i.e. [1, 3]
    with pytest.raises(qs.OpenProblemError):
        qs.closed_form_bounds(3, "power", "forward", norm_x=1.0, K=2.0, epsilon=1.0, r=1.5)
    # wrong direction outside the dead zone is divergence, not open-problem
    with pytest.raises(qs.DivergenceError) as err2:
        qs.closed_form_bounds(3, "power", "forward", norm_x=1.0, K=1.0, epsilon=1.0, r=3.0)
    assert not isinstance(err2.value, qs.OpenProblemError)
    with pytest.raises(qs.DivergenceError):
        qs.closed_form_bounds(3, "constant", "backward", K=1.0, theta=1.0)
    with pytest.raises(ValueError):
        qs.closed_form_bounds(3, "power", "forward", K=1.0, p=1.0, epsilon=1.0, r=1.0)


def test_power_regime():
    assert qs.power_regime(3, 1.0, 1.0) == "forward"
    assert qs.power_regime(3, 1.0, 3.0) == "backward"
    assert qs.power_regime(3, 1.0, 2.0) == "dead_zone"
    assert qs.power_regime(3, 2.0, 1.5) == "dead_zone"
    assert qs.power_regime(3, 2.0, 0.5) == "forward"


def test_hyers_iterate_fixed_point():
    f = qs.QuadraticForm([[1.0]])
    x = np.array([1.7])
    vals = [qs.hyers_iterate(f, 3, m, x) for m in range(7)]
    for v in vals:
        assert v == pytest.approx(1.7**2, rel=1e-12)
    for n in (4, 5):
        assert qs.hyers_iterate(f, n, 3, x) == pytest.approx(1.7**2, rel=1e-12)


def test_hyers_iterate_sine_perturbation():
    f = qs.Perturbed(qs.QuadraticForm([[1.0]]), qs.Sine(), 1.0)
    x = np.array([1.0])
    for m in range(1, 12):
        got = qs.hyers_iterate(f, 3, m, x)
        expect = 1.0 + np.sin(2.0**m) / 4.0**m
        assert got == pytest.approx(expect, rel=1e-12)
        assert abs(got - 1.0) <= 4.0**-m


def test_hyers_iterate_constant_shift():
    c = 0.9
    f = qs.SumMapping([qs.QuadraticForm([[1.0]]), qs.ConstantMap(c)])
    x = np.array([2.0])
    # the shifted forward iterate converges to the exact square
    vals = [qs.hyers_iterate(f, 3, m, x, "forward") for m in range(20)]
    assert vals[0] == pytest.approx(4.0 + c + c)  # f(x) + (n-1) f(0) / 2 = x^2 + 2c
    assert vals[-1] == pytest.approx(4.0, abs=1e-9)


def test_hyers_iterate_backward():
    f = qs.Perturbed(qs.QuadraticForm([[1.0]]), qs.Monomial(3), 0.1)
    x = np.array([2.0])
    got = qs.hyers_iterate(f, 3, 10, x, "backward")
    assert got == pytest.approx(4.0 + 0.1 * 8.0 / 2.0**10, rel=1e-12)
    fc = qs.SumMapping([qs.QuadraticForm([[1.0]]), qs.ConstantMap(1.0)])
    with pytest.raises(ValueError, match="f\\(0\\) = 0"):
        qs.hyers_iterate(fc, 3, 2, x, "backward")


def test_hyers_iterate_overflow_guard():
    f = qs.QuadraticForm([[1.0]])
    with pytest.raises(ValueError, match="overflow"):
        qs.hyers_iterate(f, 3, 400, np.array([1.0]))


def test_iterate_gap_bound_dominates():
    theta = 12.0
    phi = qs.constant(theta)
    f = qs.Perturbed(qs.QuadraticForm([[1.0]]), qs.Sine(), 1.0)
    n, K = 3, 1.0
    for x0 in (0.5, 1.0, 3.0):
        x = np.array([x0])
        iters = [qs.hyers_iterate(f, n, m, x) for m in range(9)]
        for l in range(8):
            for m in range(l + 1, 9):
                gap = abs(iters[l] - iters[m])
                bound = qs.iterate_gap_bound(phi, n, K, x, l, m)
                assert gap <= bound + 1e-12
    # one-step case collapses to Phi(lam^l x) / lam^(2l+2)
    x = np.array([1.0])
    one = qs.iterate_gap_bound(phi, 3, 1.0, x, 2, 3)
    assert one == pytest.approx(qs.phi_cap(phi, 3, 4.0 * x) / 4.0**3)


def test_iterate_gap_bound_backward_dominates():
    phi = qs.power(24.0, 3.0)
    f = qs.Perturbed(qs.QuadraticForm([[1.0]]), qs.Monomial(3), 0.5)
    n, K = 3, 1.0
    x = np.array([2.0])
    iters = [qs.hyers_iterate(f, n, m, x, "backward") for m in range(8)]
    for l in range(7):
        for m in range(l + 1, 8):
            gap = abs(iters[l] - iters[m])
            bound = qs.iterate_gap_bound(phi, n, K, x, l, m, direction="backward")
            assert gap <= bound + 1e-12


def test_stabilize_exact_quadratic():
    f = qs.QuadraticForm([[1.0]])
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1),
                             probes=(np.array([0.5]), np.array([2.0])),
                             m_max=30, tol=1e-9)
    rep = qs.stabilize(f, qs.constant(0.5), cfg)
    assert rep.passed
    for p in rep.probes:
        assert p.reason is None
        assert p.deviation <= 1e-9
        assert p.margin == pytest.approx(p.bound, abs=1e-8)


def test_stabilize_constant_budget_example():
    f = qs.Perturbed(qs.QuadraticForm([[1.0]]), qs.Sine(), 0.1)
    probes = tuple(np.array([v]) for v in (0.25, 1.0, 2.0, 5.0, 9.5))
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), probes=probes,
                             m_max=40, tol=1e-9)
    rep = qs.stabilize(f, qs.constant(1.2), cfg)
    assert rep.passed
    for p in rep.probes:
        assert p.bound == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert p.deviation <= 2.0 / 3.0


def test_stabilized_estimate_obeys_scaling_law():
    # Q_est((n-1) x) = (n-1)^2 Q_est(x) within tolerance on probes
    f = qs.Perturbed(qs.QuadraticForm([[1.0]]), qs.Sine(), 0.1)
    n = 3
    probes = tuple(np.array([v]) for v in (0.4, 1.0, 2.5))
    cfg = qs.StabilityConfig(n=n, norm_spec=qs.euclidean(1), probes=probes,
                             m_max=40, tol=1e-10)
    rep = qs.stabilize(f, qs.constant(1.2), cfg)
    m_star = max(p.iterations for p in rep.probes)
    for x in probes:
        qx = qs.hyers_iterate(f, n, m_star, x)
        qlx = qs.hyers_iterate(f, n, m_star, (n - 1) * x)
        assert abs(qlx - (n - 1) ** 2 * qx) <= 1e-8 * (1.0 + abs(qlx))


def test_stabilize_flags_nonconvergence():
    f = qs.Perturbed(qs.QuadraticForm([[1.0]]), qs.Sine(), 0.1)
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1),
                             probes=(np.array([1.0]),), m_max=2, tol=1e-15)
    rep = qs.stabilize(f, qs.constant(1.2), cfg)
    assert not rep.passed
    assert not rep.probes[0].converged
    assert rep.probes[0].status == "fail"
    assert rep.probes[0].reason == "not converged within m_max=2"


def test_stabilize_warns_on_inconsistent_control():
    f = qs.Perturbed(qs.QuadraticForm([[1.0]]), qs.Sine(), 1.0)
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1),
                             probes=(np.array([1.0]),), m_max=30, tol=1e-9)
    with pytest.warns(RuntimeWarning, match="does not dominate"):
        rep = qs.stabilize(f, qs.constant(1e-6), cfg)
    [probe] = rep.probes
    assert probe.converged and probe.status == "fail"
    assert probe.reason == "deviation above bound + tol"


def test_stabilize_rejects_divergent_series():
    f = qs.QuadraticForm([[1.0]])
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1),
                             probes=(np.array([1.0]),), m_max=10, tol=1e-9)
    with pytest.raises(qs.OpenProblemError):
        qs.stabilize(f, qs.power(1.0, 2.0), cfg, check_consistency=False)


def test_stability_config_validation():
    with pytest.raises(ValueError):
        qs.StabilityConfig(n=2, norm_spec=qs.euclidean(1))
    with pytest.raises(ValueError):
        qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), m_max=0)
    with pytest.raises(ValueError):
        qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), tol=0.0)
    with pytest.raises(ValueError):
        qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), direction="sideways")
    with pytest.raises(ValueError):
        qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), bound_mode="r")


def test_codomain_norm_shapes():
    spec = qs.lp_quasi(0.5, 2)
    assert qs.codomain_norm(spec, np.array([1.0, 1.0])) == pytest.approx(4.0)
    assert qs.codomain_norm(qs.euclidean(1), 3.0) == pytest.approx(3.0)
    assert qs.codomain_norm(qs.euclidean(1), np.eye(2)) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        qs.codomain_norm(qs.euclidean(1), np.zeros((2, 2, 2, 2)))


def test_remark_equality_grid():
    # K = 1 quasi-norm numbers equal p = 1 numbers, closed form and series
    for n in (3, 4, 5):
        for r in (0.5, 1.0, 1.5, 2.5, 3.0, 4.0):
            direction = "forward" if r < 2.0 else "backward"
            for norm_x in (0.5, 1.0, 2.0):
                ck = qs.closed_form_bounds(n, "power", direction, norm_x=norm_x,
                                           K=1.0, epsilon=1.0, r=r)
                cp = qs.closed_form_bounds(n, "power", direction, norm_x=norm_x,
                                           p=1.0, epsilon=1.0, r=r)
                assert abs(ck - cp) <= 1e-12 * abs(ck)
                phi = qs.power(1.0, r)
                x = np.array([norm_x])
                if direction == "forward":
                    sk = qs.series_bound_forward(phi, n, 1.0, x, 1e-15)
                    sp = qs.series_bound_forward_p(phi, n, 1.0, x, 1e-15)
                else:
                    sk = qs.series_bound_backward(phi, n, 1.0, x, 1e-15)
                    sp = qs.series_bound_backward_p(phi, n, 1.0, x, 1e-15)
                assert abs(sk - sp) <= 1e-12 * abs(sk)
    # the constant-budget closed forms agree as well
    assert qs.closed_form_bounds(3, "constant", "forward", K=1.0, theta=1.0) == pytest.approx(
        qs.closed_form_bounds(3, "constant", "forward", p=1.0, theta=1.0), rel=1e-12)


def test_truncated_vs_closed_within_series_tol():
    # |closed - truncated| <= 10 * series_tol across a parameter grid
    for tol in (1e-8, 1e-10, 1e-12):
        for n in (3, 4):
            for r in (0.5, 1.0, 1.5):
                for norm_x in (0.5, 1.0, 3.0):
                    phi = qs.power(1.0, r)
                    x = np.array([norm_x])
                    truncated = qs.series_bound_forward(phi, n, 1.0, x, tol)
                    closed = qs.closed_form_bounds(n, "power", "forward", norm_x=norm_x,
                                                   K=1.0, epsilon=1.0, r=r)
                    assert abs(closed - truncated) <= 10.0 * tol


def test_fit_power_amplitude():
    f = qs.Perturbed(qs.QuadraticForm([[1.0]]), qs.OddGrowth(), 0.05)
    eps = qs.fit_power_amplitude(f, 3, 1.0, trials=300, seed=0)
    assert eps > 0.0
    # the bump satisfies |b(t)| <= |t|, so the residual is at most
    # 0.05 * (3 * sum_pairs |xi - xj| + sum_i (|s| + n|xi|)) <= 0.05 * 12 * sum |xi|
    assert eps <= 0.05 * 12.0 + 1e-9


def test_fit_constant_level():
    f = qs.Perturbed(qs.QuadraticForm([[1.0]]), qs.Sine(), 0.1)
    theta = qs.fit_constant_level(f, 3, trials=300, seed=0)
    assert 0.0 < theta <= 1.2 + 1e-9
    # the fit and the empirical sup read the same sample stream
    assert theta == qs.empirical_sup_residual(f, qs.EquationSpec("fe3", n=3), trials=300, seed=0)
    levels = [qs.fit_constant_level(f, 3, trials=t, seed=4) for t in (1, 10, 50, 200)]
    assert levels == sorted(levels)


def test_verify_unitary_covariance_exact():
    f = qs.MatrixSquare(2)
    rng = np.random.default_rng(3)
    probes = tuple(qs.random_point(rng, d=1, k=2, box=3.0) for _ in range(3))
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), probes=probes,
                             m_max=12, tol=1e-10)
    rep = qs.verify_unitary_covariance(f, 3, cfg, phi=qs.constant(1e-6),
                                       unitary_count=40, seed=0, tol=1e-10)
    assert rep.passed
    assert rep.max_relative_deviation <= 1e-10


def test_verify_unitary_covariance_scalar_hat_case():
    # k = 1: the stabilized limit scales by |u|^2 under unit scalars
    f = qs.Perturbed(
        qs.QuadraticForm([[1.0]], complex_scalars=True),
        qs.Custom(lambda x: float(np.sin(x[0].real)), qs.Domain(1, complex_scalars=True)),
        0.05,
    )
    rng = np.random.default_rng(4)
    probes = tuple(rng.uniform(-3, 3, 1) + 1j * rng.uniform(-3, 3, 1) for _ in range(3))
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), probes=probes,
                             m_max=25, tol=1e-10)
    rep = qs.verify_unitary_covariance(f, 3, cfg, unitary_count=50, seed=1, tol=1e-6)
    assert rep.passed


ENGINE_ROUTES = {"K=1": {"K": 1.0}, "K=2": {"K": 2.0}, "p=1/2": {"p": 0.5}}


@pytest.mark.parametrize("variant", ["power", "constant"])
@pytest.mark.parametrize("route", list(ENGINE_ROUTES))
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_bound_engine(direction, route, variant):
    kw = ENGINE_ROUTES[route]
    K, p = kw.get("K", 1.0), kw.get("p", 1.0)
    n, lam, x = 3, 2.0, np.array([1.7])
    with pytest.raises(ValueError):
        qs.bound(qs.power(1.0, 1.0), n, x, direction, K=2.0, p=0.5)
    if variant == "constant" and direction == "backward":
        # also past K = (n-1)^2, where the forward scheme is in the dead zone
        for K_bad, p_bad in ((K, p), (5.0, 1.0)):
            with pytest.raises(qs.DivergenceError) as err:
                qs.bound(qs.constant(1.0), n, x, direction, K=K_bad, p=p_bad)
            assert not isinstance(err.value, qs.OpenProblemError)
        return
    # r = 0.5 forward and r = 3.5 backward are outside the K = 2 dead zone [1, 3]
    r = {"power": 0.5 if direction == "forward" else 3.5, "constant": 0.0}[variant]
    phi = qs.power(0.8, r) if variant == "power" else qs.constant(0.8)
    closed = qs.bound(phi, n, x, direction, K=K, p=p)
    assert qs.bound(phi, n, x, direction, K=K, p=p, series_tol=1e-15) == pytest.approx(
        closed, rel=1e-12)

    # the distance left after iterate m is the series restarted at term m
    def term(i):
        if direction == "forward":
            return qs.phi_cap(phi, n, x * lam**i) / lam ** (2 * i)
        return lam ** (2 * i + 2) * qs.phi_cap(phi, n, x / lam ** (i + 1))

    degree = r - 2.0 if direction == "forward" else 2.0 - r
    for m in (1, 4):
        remainder = sum((K ** (j + 1) * term(m + j)) ** p for j in range(300)) ** (1 / p) / lam**2
        assert closed * lam ** (degree * m) == pytest.approx(remainder, rel=1e-12)

    # a custom control is summed term by term with ratio monitoring
    custom = qs.custom_control(phi.evaluate)
    assert qs.bound(custom, n, x, direction, K=K, p=p, series_tol=1e-14) == pytest.approx(
        closed, rel=1e-10)

    # stabilize scales the closed form by decay^m instead of re-summing the tail
    if route == "K=1":
        f, spec = qs.QuadraticForm([[1.0]]), qs.euclidean(1)
    else:
        f = qs.Stack([qs.QuadraticForm([[1.0]]), qs.QuadraticForm([[2.0]])])
        spec = qs.lp_quasi(0.5, 2)
    cfg = qs.StabilityConfig(n=n, norm_spec=spec, direction=direction, probes=(x,),
                             bound_mode="p" if "p" in kw else "quasi")
    probe = qs.stabilize(f, phi, cfg, check_consistency=False).probes[0]
    assert probe.converged
    assert probe.tail_bound == pytest.approx(closed * lam ** (degree * probe.iterations),
                                             rel=1e-12)
    assert probe.tail_bound < cfg.tol <= probe.tail_bound / lam ** degree


# ---------------------------------------------------------------------------
# the batched direct method against per-point references


def hyers_point(f, n, m, x, direction):
    # one point at a time: f(0) and f at the scaled point, as two calls
    lam = float(n - 1)
    f0 = np.asarray(f(np.zeros_like(x)))
    if direction == "forward":
        return (np.asarray(f(x * lam**m)) + (n - 1) / 2.0 * f0) / lam ** (2 * m)
    return lam ** (2 * m) * np.asarray(f(x / lam**m))


def value_norm_point(spec, v):
    # one codomain value through the per-point norm: scalars and matrices are one coordinate
    v = np.asarray(v)
    return qs.norm_eval(spec, v.reshape(1) if v.ndim == 0 else v[np.newaxis] if v.ndim == 2 else v)


def stabilize_per_probe(f, phi, cfg):
    # the per-probe iteration: every probe runs its own levels to its own stop
    lam = cfg.n - 1
    K, p = cfg.route
    r = phi.r if phi.variant == "power" else 0.0
    decay = float(lam) ** ((r - 2.0) if cfg.direction == "forward" else (2.0 - r))
    dnorm = qs.point_norm if cfg.domain_norm is None else cfg.domain_norm.norm
    out = []
    for x in cfg.probes:
        x = np.asarray(x)
        b = qs.stability.probe_bound(phi, cfg, x)
        tail0 = None if phi.variant == "custom" else qs.bound(phi, cfg.n, x, cfg.direction, K, p)
        converged, iterations, tail, first, prev, bad = False, 0, None, None, None, None
        for m in range(cfg.m_max + 1):
            if float(lam) ** m > qs.stability.SCALE_GUARD:
                break
            val = hyers_point(f, cfg.n, m, x, cfg.direction)
            if bad is None and not np.all(np.isfinite(val)):
                bad = m
            if prev is None:
                first = val
            else:
                gap = value_norm_point(cfg.norm_spec, val - prev)
                tail = None if tail0 is None else tail0 * decay**m
                iterations = m
                if gap < cfg.tol and (tail is None or tail < cfg.tol):
                    converged = True
                    break
            prev = val
        deviation = value_norm_point(cfg.norm_spec, first - val)
        margin = b - deviation
        passed = converged and margin >= -cfg.tol
        reason = None
        if not passed:
            if bad is not None:
                reason = f"non-finite iterate at m={bad}"
            elif not converged:
                reason = f"not converged within m_max={cfg.m_max}"
            else:
                reason = "deviation above bound + tol"
        out.append(qs.ProbeResult(probe=x, norm_x=dnorm(x), q_estimate=val, iterations=iterations,
                                  converged=converged, deviation=deviation, bound=b, margin=margin,
                                  tail_bound=tail, status="pass" if passed else "fail",
                                  reason=reason))
    return out


def covariance_per_unitary(f, n, cfg, phi, unitary_count, seed, tol):
    # one unitary and one probe at a time
    rep = qs.stabilize(f, phi, cfg, check_consistency=False)
    m_star = max(max(p.iterations for p in rep.probes), 1)
    probes = [np.asarray(x) for x in cfg.probes]
    bases = [hyers_point(f, n, m_star, x, cfg.direction) for x in probes]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(unitary_count):
        u = qs.mappings.draw_unitary(rng, f.domain)
        for x, base in zip(probes, bases):
            moved = hyers_point(f, n, m_star, qs.act(u, x), cfg.direction)
            dev = value_norm_point(cfg.norm_spec, moved - qs.conjugate_value(u, base))
            worst = max(worst, dev / (1.0 + value_norm_point(cfg.norm_spec, base)))
    return worst, worst <= tol, m_star


def same(a, b):
    if a is None or isinstance(a, (str, bool)):
        return a == b and type(a) is type(b)
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def assert_same_probes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in qs.ProbeResult.__dataclass_fields__:
            assert same(getattr(g, name), getattr(w, name)), (name, getattr(g, name), getattr(w, name))


def count_iterate_calls(monkeypatch):
    calls = []
    inner = qs.stability.hyers_iterate

    def counted(f, n, m, x, direction="forward"):
        calls.append(np.array(x))
        return inner(f, n, m, x, direction)

    monkeypatch.setattr(qs.stability, "hyers_iterate", counted)
    return calls


def _stack_plane(direction):
    # a vector codomain; both bumps vanish at 0 so the backward scheme applies
    bumps = (qs.Sine(), qs.Cosine()) if direction == "forward" else (qs.Monomial(3), qs.OddGrowth())
    return qs.Stack([qs.Perturbed(qs.QuadraticForm([[1.0]]), bumps[0], 0.1),
                     qs.Perturbed(qs.QuadraticForm([[2.0]]), bumps[1], 0.05)])


BATCH_CASES = {
    "real": lambda: qs.Perturbed(qs.QuadraticForm([[1.0, 0.3], [0.3, 2.0]]), qs.Sine(d=2), 0.2),
    "complex": lambda: qs.Perturbed(
        qs.QuadraticForm([[1.0]], complex_scalars=True),
        qs.Custom(lambda x: float(np.sin(x[0].real)), qs.Domain(1, complex_scalars=True)), 0.05),
    "matrix": lambda: qs.Perturbed(qs.MatrixSquare(2),
                                   qs.MatrixSineBump([[1.0, 0.3], [0.3, -0.5]]), 0.1),
}


def _probes(f, count, seed, box=3.0):
    rng = np.random.default_rng(seed)
    return tuple(f.domain.random(rng, box) for _ in range(count)) + (f.domain.zero(),)


@pytest.mark.parametrize("kind", list(BATCH_CASES))
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_hyers_iterate_block_rows_equal_points(kind, direction):
    f = BATCH_CASES[kind]()  # every case has f(0) = 0, as the backward scheme needs
    X = np.stack(_probes(f, 9, 1, box=5.0))
    for n, m in ((3, 0), (3, 7), (5, 4), (64, 20)):
        V = qs.hyers_iterate(f, n, m, X, direction)
        assert V.shape[0] == len(X)
        for i, x in enumerate(X):
            assert same(V[i], qs.hyers_iterate(f, n, m, x, direction))
            assert same(V[i], hyers_point(f, n, m, x, direction))


@pytest.mark.parametrize("mode", ["quasi", "p"])
@pytest.mark.parametrize("direction, control", [
    ("forward", "power"), ("forward", "constant"), ("forward", "custom"),
    ("backward", "power"), ("backward", "custom"),  # a constant budget has no backward scheme
])
def test_stabilize_matches_per_probe_reference(direction, control, mode, monkeypatch):
    f = _stack_plane(direction)
    # outside the K = 2 dead zone r in [1, 3] of the l^1/2 plane in quasi mode
    power = qs.power(0.5, 0.5 if direction == "forward" else 3.5)
    phi = {"power": power, "constant": qs.constant(0.4),
           "custom": qs.custom_control(power.evaluate)}[control]
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.lp_quasi(0.5, 2), direction=direction,
                             probes=_probes(f, 12, 2), bound_mode=mode, m_max=30, tol=1e-9)
    calls = count_iterate_calls(monkeypatch)
    got = qs.stabilize(f, phi, cfg, check_consistency=False).probes
    assert_same_probes(got, stabilize_per_probe(f, phi, cfg))
    # one call per level, on the probes still running: a probe that stops at
    # level s is evaluated at levels 0..s only
    assert [len(x) for x in calls] == [sum(p.iterations >= m for p in got)
                                       for m in range(max(p.iterations for p in got) + 1)]
    assert len(set(len(x) for x in calls)) > 1
    if control == "custom":
        assert all(p.tail_bound is None for p in got)


@pytest.mark.parametrize("kind", list(BATCH_CASES))
def test_stabilize_matches_per_probe_reference_on_each_domain(kind):
    f = BATCH_CASES[kind]()
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1),
                             probes=_probes(f, 10, 3), m_max=40, tol=1e-10)
    phi = qs.constant(2.0)
    got = qs.stabilize(f, phi, cfg, check_consistency=False).probes
    assert_same_probes(got, stabilize_per_probe(f, phi, cfg))
    assert any(p.status == "pass" for p in got)


def test_stabilize_matches_reference_when_probes_stop_apart():
    # an exact square under a power budget stops once the tail bound r^m
    # decays below tol, later for larger probes; some never get there
    f = qs.QuadraticForm([[1.0]])
    probes = tuple(np.array([v]) for v in (0.0, 1e-8, 1e-6, 1.0, 50.0))
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), probes=probes, m_max=12, tol=1e-9)
    got = qs.stabilize(f, qs.power(1.0, 1.0), cfg, check_consistency=False).probes
    assert_same_probes(got, stabilize_per_probe(f, qs.power(1.0, 1.0), cfg))
    assert [p.converged for p in got] == [True, True, True, False, False]
    assert got[-1].reason == "not converged within m_max=12"


def test_stabilize_matches_reference_at_the_scale_guard():
    # (n-1)^m passes the guard at m = 56 for n = 64, before m_max = 60
    f = qs.Perturbed(qs.QuadraticForm([[1.0]]), qs.Sine(), 0.1)
    cfg = qs.StabilityConfig(n=64, norm_spec=qs.euclidean(1),
                             probes=(np.array([0.0]), np.array([0.7]), np.array([-2.0])),
                             m_max=60, tol=1e-300)
    phi = qs.constant(0.5)
    got = qs.stabilize(f, phi, cfg, check_consistency=False).probes
    assert_same_probes(got, stabilize_per_probe(f, phi, cfg))
    assert all(p.iterations == 55 and not p.converged for p in got)
    assert got[0].reason == "not converged within m_max=60"


def test_stabilize_names_the_first_non_finite_iterate():
    f = qs.Monomial(400)
    probes = tuple(np.array([v]) for v in (0.5, 1.5, 3.0, 9.0))
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), probes=probes, m_max=20, tol=1e-9)
    with np.errstate(all="ignore"):
        got = qs.stabilize(f, qs.constant(1.0), cfg, check_consistency=False).probes
        want = stabilize_per_probe(f, qs.constant(1.0), cfg)
    assert_same_probes(got, want)
    # x^400 overflows once (n-1)^m |x| passes about 5.9
    assert [p.reason for p in got] == [f"non-finite iterate at m={m}" for m in (4, 2, 1, 0)]


@pytest.mark.parametrize("kind", list(BATCH_CASES))
def test_covariance_matches_per_unitary_reference_across_blocks(kind, monkeypatch):
    f = BATCH_CASES[kind]()
    probes = _probes(f, 3, 4)
    cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1),
                             probes=probes, m_max=25, tol=1e-10)
    phi = qs.constant(1.0)
    # 7 unitaries per block: 30 unitaries take 5 blocks, the last one short
    monkeypatch.setattr("quadstab.equations._BLOCK_ENTRIES", 7 * len(probes) * f.domain.zero().size)
    want = covariance_per_unitary(f, 3, cfg, phi, 30, 6, 1e-6)
    calls = count_iterate_calls(monkeypatch)
    rep = qs.verify_unitary_covariance(f, 3, cfg, phi=phi, unitary_count=30, seed=6, tol=1e-6)
    assert (rep.max_relative_deviation, rep.passed, rep.iterations_used) == want
    assert rep.passed
    # the stabilize levels, the probes' own limit, then one call per block of
    # unitaries, unitary-major: u_0 x_0, u_0 x_1, ..., u_1 x_0, ...
    assert len(calls) == rep.iterations_used + 1 + 1 + 5
    rng = np.random.default_rng(6)
    unitaries = [qs.mappings.draw_unitary(rng, f.domain) for _ in range(30)]
    for b, block in enumerate(calls[-5:]):
        want_args = [qs.act(u, x) for u in unitaries[7 * b:7 * b + 7] for x in probes]
        assert np.array_equal(block, np.stack(want_args))


def test_control_norm_is_a_spec():
    with pytest.raises(TypeError, match="QuasiNormSpec"):
        qs.power(1.0, 1.0, norm=qs.point_norm)  # a norm callable is refused
    x = np.array([3.0, -4.0])
    assert qs.power(2.0, 1.0).evaluate([x, x]) == 2.0 * (5.0 + 5.0)
    assert qs.power(1.0, 1.0, norm=qs.l1(2)).evaluate([x, 2 * x]) == 7.0 + 14.0
    assert qs.phi_component(qs.power(1.0, 2.0, norm=qs.l1(2)), 3, 2, x) == 49.0
    # the closed form reads |norm_x| as an l1 norm, with no square that could overflow
    got = qs.closed_form_bounds(3, "power", "forward", norm_x=1e200, K=1.0, epsilon=1.0, r=1.0)
    assert got == pytest.approx(1e200 * qs.closed_form_bounds(3, "power", "forward", norm_x=1.0, K=1.0,
                                                               epsilon=1.0, r=1.0), rel=1e-15)
