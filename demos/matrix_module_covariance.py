"""
Unitary covariance of the stabilized limit
==========================================

Over the matrix algebra M_2(C), a quadratic mapping compatible with the
module structure must satisfy Q(u x) = u Q(x) u* for every unitary u.  The
direct-method limit inherits this covariance even when the input mapping
is perturbed: the bump washes out at the rate of the rescaling.  Scalar
algebras degenerate to Q(u x) = |u|^2 Q(x).
"""

import numpy as np

import quadstab as qs

rng = np.random.default_rng(0)

f = qs.Perturbed(qs.MatrixSquare(2), qs.MatrixSineBump([[1.0, 0.3], [0.3, -0.5]]), 0.1)
x = qs.random_point(rng, d=1, k=2, box=2.0)

# the raw mapping is NOT covariant because of the bump ...
u = qs.sample_unitary(2, seed=1)
raw_dev = np.linalg.norm(np.asarray(f(qs.act(u, x))) - qs.conjugate_value(u, np.asarray(f(x))))
print(f"raw covariance defect of f at one unitary: {raw_dev:.3e}")

# ... but the stabilized limit is, to machine precision
probes = tuple(qs.random_point(rng, d=1, k=2, box=3.0) for _ in range(3))
cfg = qs.StabilityConfig(n=3, norm_spec=qs.euclidean(1), probes=probes, m_max=25, tol=1e-10)
report = qs.verify_unitary_covariance(f, cfg, unitary_count=100, seed=2, tol=1e-6)
print(f"stabilized limit over 100 Haar unitaries: max relative defect "
      f"{report.max_relative_deviation:.3e} (iterations used: {report.iterations_used})")

# the twisted residual certifies the matrix square exactly
ms = qs.MatrixSquare(2)
xs = tuple(qs.random_point(rng, d=1, k=2, box=4.0) for _ in range(3))
vals = [np.linalg.norm(qs.approximate_remainder(ms, qs.sample_unitary(2, seed=s), 3, xs))
        for s in range(20)]
print(f"twisted residual of x x* over 20 unitaries: max {max(vals):.3e}")

# scalar algebra: u Q(t) u* = |u|^2 Q(t), and the hermitian square scales accordingly
sq = qs.QuadraticForm([[1.0]], complex_scalars=True)
t = np.array([1.5 + 0.5j])
u1 = np.exp(0.9j)
print(f"\nscalar case: |u t|^2 = {sq(qs.act(u1, t)):.6f}, "
      f"|u|^2 |t|^2 = {abs(u1) ** 2 * sq(t):.6f}")
