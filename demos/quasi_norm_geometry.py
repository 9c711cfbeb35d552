"""
Quasi-norm geometry
===================

A quasi-norm keeps absolute homogeneity and definiteness but relaxes the
triangle inequality to ||x+y|| <= K (||x|| + ||y||).  This demo builds the
registered norm families, estimates each one's modulus of concavity K by
sampling, and shows the p-norm inequality that makes l^p with 0 < p < 1 a
p-normed space rather than a normed one.
"""

import numpy as np

import quadstab as qs

rng = np.random.default_rng(0)

specs = {
    "euclidean R^3": qs.euclidean(3),
    "l1 R^2": qs.l1(2),
    "l^{1/2} R^2": qs.lp_quasi(0.5, 2),
    "l^{3/4} R^3": qs.lp_quasi(0.75, 3),
    "weighted(1,2,3)": qs.weighted([1.0, 2.0, 3.0]),
}

print("declared K vs sampled sup ||x+y|| / (||x|| + ||y||):")
for name, spec in specs.items():
    est = qs.concavity_modulus_estimate(spec, trials=4000, seed=1)
    print(f"  {name:18s} K = {spec.K:.4f}   sampled = {est:.4f}")

# the pair (e1, 0), (0, e2) attains K = 2^(1/p - 1) exactly for l^{1/2}
spec = qs.lp_quasi(0.5, 2)
x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
norm = lambda v: qs.norm_eval(spec, v)
ratio = norm(x + y) / (norm(x) + norm(y))
print(f"\nl^(1/2) worst pair: ||e1+e2|| = {norm(x + y):.1f}, "
      f"||e1|| + ||e2|| = {norm(x) + norm(y):.1f}, ratio = {ratio:.1f}")

# p-norm inequality: ||x+y||^p <= ||x||^p + ||y||^p on random pairs
p = spec.p
worst = 0.0
for _ in range(4000):
    a = rng.uniform(-10, 10, 2)
    b = rng.uniform(-10, 10, 2)
    worst = max(worst, norm(a + b) ** p - norm(a) ** p - norm(b) ** p)
print(f"p-norm inequality slack (should never be positive): max = {worst:.3e}")

# matrix coordinates contribute their Frobenius norm before aggregation
point = np.stack([np.eye(2), 2 * np.eye(2)])
print(f"\npoint with two 2x2 matrix coordinates, euclidean aggregate: "
      f"{qs.norm_eval(qs.euclidean(2), point):.4f}  (= sqrt(2 + 8))")
