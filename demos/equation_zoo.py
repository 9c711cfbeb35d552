"""
The equation zoo
================

Four equivalent ways of saying "Q is quadratic", evaluated as residuals
(left side minus right side) through concrete mappings:

  fe1     Q(x+y) + Q(x-y) = 2Q(x) + 2Q(y)
  fe2     the three-point centroid identity
  fe3     the n-point centroid identity, n >= 3
  fe3_0   the integer-shifted two-variable identity, |a| != 1

Exact quadratic forms annihilate all of them; anything else leaves a
visible residual.
"""

import numpy as np

import quadstab as qs

square = qs.QuadraticForm([[1.0]])
cube = qs.Monomial(3)
quartic = qs.Monomial(4)
wobbly = qs.Perturbed(square, qs.Sine(), 0.3)
fe1, fe2, fe3 = qs.EquationSpec("fe1"), qs.EquationSpec("fe2"), qs.EquationSpec("fe3", n=3)
fe3_4, fe3_0_2 = qs.EquationSpec("fe3", n=4), qs.EquationSpec("fe3_0", a=2)

print("residuals on fixed probes (t^2 solves everything):")
print(f"  fe1   t^2 (1.3, 0.4)     -> {qs.equation_residual(square, fe1, ([1.3], [0.4])):+.2e}")
print(f"  fe1   t^3 (1, 1)         -> {qs.equation_residual(cube, fe1, ([1.0], [1.0])):+.1f}")
print(f"  fe2   t^3 (1, 0, 0)      -> {qs.equation_residual(cube, fe2, ([1.0], [0.0], [0.0])):+.1f}")
print(f"  fe3:4 t^3 (1, 0, 0, 0)   -> "
      f"{qs.equation_residual(cube, fe3_4, ([1.0], [0.0], [0.0], [0.0])):+.1f}")
print(f"  fe3_0:2 t^4 (1, 1)       -> {qs.equation_residual(quartic, fe3_0_2, ([1.0], [1.0])):+.1f}")

# the n = 3 centroid equation IS the three-point identity
rng = np.random.default_rng(1)
x, y, z = ([v] for v in rng.uniform(-5, 5, 3))
print(f"\nfe2 == fe3 at n=3: {qs.equation_residual(wobbly, fe2, (x, y, z)):.6f} vs "
      f"{qs.equation_residual(wobbly, fe3, (x, y, z)):.6f}")

# sampled sup of the residual norm: t^2 + sin t stays under the
# 12-sine-term budget on the default box
sup = qs.empirical_sup_residual(wobbly, fe3, trials=3000, seed=2)
print(f"\nsampled sup residual of t^2 + 0.3 sin t (n=3): {sup:.3f}  <= 0.3 * 12 = 3.6")

# the unitary-twisted remainder on the matrix module: x |-> x x* is killed
# for every Haar unitary, an asymmetric perturbation is not
ms = qs.MatrixSquare(2)
bump = qs.Perturbed(ms, qs.MatrixSineBump([[1.0, 0.3], [0.3, -0.5]]), 0.2)
xs = tuple(qs.random_point(rng, d=1, k=2, box=3.0) for _ in range(3))
for name, f in (("x x*", ms), ("x x* + bump", bump)):
    worst = 0.0
    for seed in range(50):
        u = qs.sample_unitary(2, seed=seed)
        worst = max(worst, float(np.linalg.norm(qs.approximate_remainder(f, u, 3, xs))))
    print(f"twisted remainder sup over 50 unitaries, {name:12s}: {worst:.3e}")
