"""Evaluatable mapping families and residual evaluators for the equation zoo.

Mappings are closed-form families rather than bare callables so experiment
configurations stay serializable; ``Custom`` is the escape hatch for tests.
Residuals come back as codomain values (scalar, vector, or matrix) so real-
and matrix-valued mappings share one code path; take norms separately.

Every mapping evaluates one point, `f(x)`, or a block, `f.batch(X)` with X of
shape (B, *domain.shape), through its one `_eval`, so the two agree bit for
bit; `__call__` and `batch` are defined once, on `Mapping`.
`_residuals` evaluates all term arguments of a block of tuples in one
`f.batch` call, twisted by the algebra's block action and conjugation;
`equation_residual` and `approximate_remainder` run it on one tuple.
`_residual_blocks`, the one seeded sampler, draws every block of tuples the
same way, for every equation and domain: its points in one
`algebra._draw_points` call on default_rng(seed) and, for fe3 only, its
unitaries in one `_draw_unitaries` call on a child stream of that seed.  It
yields blocks of tuples and residuals that the empirical sup, the control fits
and the consistency check reduce whole; `sample_residuals` is its per-tuple
view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (QuasiNormSpec, _draw_points, _ginibre_from_normals, _haar_from_ginibre, act_block,
                      codomain_norm, codomain_norms, conjugate_block, hat, multiply_block, random_point)
from .equations import EquationSpec, block_length, term_arguments, term_arrays, term_sum


@dataclass(frozen=True)
class Domain:
    """Shape of a mapping's domain: d coordinates, each scalar or k x k matrix."""

    d: int
    k: int = 1
    complex_scalars: bool = False

    @property
    def matrix(self) -> bool:
        return self.k > 1

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of one point: (d,) for scalar coordinates, (d, k, k) for matrices."""
        return (self.d,) if self.k == 1 else (self.d, self.k, self.k)

    def zero(self) -> np.ndarray:
        dtype = complex if (self.complex_scalars or self.matrix) else float
        return np.zeros(self.shape, dtype=dtype)

    def random(self, rng: np.random.Generator, box: float = 10.0) -> np.ndarray:
        return random_point(rng, self.d, self.k, box, self.complex_scalars or self.matrix)


class Mapping:
    """Base class of the mapping families on one Domain.

    `f(x)` evaluates one point; `f.batch(X)` takes B points stacked on a
    leading axis, X of shape (B, *domain.shape), and returns their B values
    stacked the same way, shape (B, *value shape), with `f.batch(X)[i]`
    equal to `f(X[i])` bit for bit.  Every family writes its formula once,
    in `_eval`, on either shape: a closed form broadcasts over the leading
    axis and keeps the per-point reduction order, so a value does not depend
    on B; `Custom` loops its callable over the points.
    """

    domain: Domain

    def __call__(self, x):
        v = self._eval(self._coerce(x))
        return v.item() if v.ndim == 0 else v

    def batch(self, X):
        return self._eval(self._coerce_batch(X))

    def _eval(self, x):
        """The formula on one point (shape domain.shape) or on points stacked on a leading axis."""
        raise NotImplementedError(f"{type(self).__name__} defines no _eval")

    def _lead(self, x) -> tuple[int, ...]:
        """The leading axes of `x` in front of one point's shape: () or (B,)."""
        return x.shape[:x.ndim - len(self.domain.shape)]

    def _coerce(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.ndim == 2 and self.domain.matrix and self.domain.d == 1:
            x = x[np.newaxis]
        if x.shape != self.domain.shape:
            raise ValueError(f"domain mismatch: expected point of shape {self.domain.shape}, got {x.shape}")
        return x

    def _coerce_batch(self, X) -> np.ndarray:
        X = np.asarray(X)
        if X.shape[1:] != self.domain.shape:
            raise ValueError(f"domain mismatch: expected points of shape (B, *{self.domain.shape}), "
                             f"got {X.shape}")
        return X


def _adjoint(a):
    """Conjugate transpose of the last two axes."""
    return a.swapaxes(-1, -2).conj()


class QuadraticForm(Mapping):
    """x -> sum_ij M[i,j] x_i conj(x_j), or sum_ij M[i,j] x_i x_j* for matrix coordinates.

    M is real symmetric.  On real scalar coordinates this is the plain form
    x^T M x; on complex scalars it is the hermitian form, which is what makes
    the value covariant under unit scalars.
    """

    def __init__(self, coefficients, k: int = 1, complex_scalars: bool = False):
        M = np.asarray(coefficients, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("coefficients must be a square matrix")
        if not np.allclose(M, M.T, atol=1e-12):
            raise ValueError("coefficients must be symmetric")
        self.coefficients = M
        self.domain = Domain(M.shape[0], k=k, complex_scalars=complex_scalars)

    def _eval(self, x):
        x = np.ascontiguousarray(x)
        M = self.coefficients
        if not self.domain.matrix:  # per point one (1, d) @ (d, d) and one (1, d) @ (d, 1) product
            row = np.conj(x) if x.dtype.kind == "c" else x
            return (row[..., np.newaxis, :] @ M @ x[..., np.newaxis]).real[..., 0, 0]
        k = self.domain.k
        out = np.zeros(self._lead(x) + (k, k), dtype=complex)
        for i, j in zip(*np.nonzero(M)):
            out += M[i, j] * (x[..., i, :, :] @ _adjoint(x[..., j, :, :]))
        return out


class MatrixSquare(Mapping):
    """Single matrix coordinate x -> x x*."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.domain = Domain(1, k=k, complex_scalars=True)

    def _eval(self, x):
        if not self.domain.matrix:
            return np.abs(x[..., 0]) ** 2
        return x[..., 0, :, :] @ _adjoint(x[..., 0, :, :])


class Coordinatewise(Mapping):
    """x -> sum_i g(x_i) on a real scalar domain, for an elementwise array function g."""

    def __init__(self, g, d: int = 1):
        self.g = g
        self.domain = Domain(d)

    def _eval(self, x):
        return np.add.reduce(self.g(x), axis=-1, dtype=float)


class Monomial(Coordinatewise):
    """Coordinatewise power sum: x -> sum_i x_i^degree."""

    def __init__(self, degree: int, d: int = 1):
        self.degree = degree = int(degree)
        super().__init__(lambda x: x**degree, d)


class ConstantMap(Mapping):
    def __init__(self, value, d: int = 1, k: int = 1, complex_scalars: bool = False):
        self.value = np.asarray(value, dtype=float) if np.ndim(value) else float(value)
        self.domain = Domain(d, k=k, complex_scalars=complex_scalars)

    def _eval(self, x):
        return np.full(self._lead(x) + np.shape(self.value), self.value)


class Sine(Coordinatewise):
    """Bounded bump: x -> sum_i sin(x_i)."""

    def __init__(self, d: int = 1):
        super().__init__(np.sin, d)


class Cosine(Coordinatewise):
    """Bounded bump: x -> sum_i cos(x_i)."""

    def __init__(self, d: int = 1):
        super().__init__(np.cos, d)


class OddGrowth(Coordinatewise):
    """Odd bump with asymptotically linear growth: x -> sum_i x_i^3 / (1 + x_i^2)."""

    def __init__(self, d: int = 1):
        super().__init__(lambda x: x**3 / (1.0 + x**2), d)


class MatrixSineBump(Mapping):
    """Bounded self-adjoint bump on a matrix module: x -> sin(Re tr x_1) * H."""

    def __init__(self, h):
        H = np.asarray(h, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("h must be a square matrix")
        if H.shape[0] < 2:
            raise ValueError("h must be at least 2 x 2: the bump acts on a matrix coordinate")
        if np.linalg.norm(H - H.conj().T) > 1e-12 * max(1.0, np.linalg.norm(H)):
            raise ValueError("h must be self-adjoint")
        self.h = H
        self.domain = Domain(1, k=H.shape[0], complex_scalars=True)

    def _eval(self, x):
        trace = np.trace(x[..., 0, :, :], axis1=-2, axis2=-1).real
        return np.sin(trace)[..., np.newaxis, np.newaxis] * self.h


class Perturbed(Mapping):
    """base(x) + amplitude * bump(x)."""

    def __init__(self, base: Mapping, bump: Mapping, amplitude: float):
        if base.domain != bump.domain:
            raise ValueError("base and bump must share a domain")
        self.base = base
        self.bump = bump
        self.amplitude = float(amplitude)
        self.domain = base.domain

    def _eval(self, x):
        return self.base._eval(x) + self.amplitude * self.bump._eval(x)


class Scaled(Mapping):
    def __init__(self, inner: Mapping, factor: float):
        self.inner = inner
        self.factor = float(factor)
        self.domain = inner.domain

    def _eval(self, x):
        return self.factor * self.inner._eval(x)


class _Parts(Mapping):
    """A combinator of `parts`: at least one mapping, all on one domain."""

    combinator, members = "", ""  # the names its refusals use

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError(f"{self.combinator} needs at least one part")
        if any(p.domain != parts[0].domain for p in parts):
            raise ValueError(f"{self.members} must share a domain")
        self.parts = parts
        self.domain = parts[0].domain


class SumMapping(_Parts):
    combinator, members = "sum", "summands"

    def _eval(self, x):
        total = np.asarray(self.parts[0]._eval(x))
        for p in self.parts[1:]:
            total = total + np.asarray(p._eval(x))
        return total


class Stack(_Parts):
    """Stack scalar-codomain mappings into a vector-valued one."""

    combinator, members = "stack", "stacked parts"

    def _eval(self, x):
        values = np.array([p._eval(x) for p in self.parts], dtype=float).T
        if values.shape[:-1] != self._lead(x):
            raise TypeError("stacked parts must be scalar-valued")
        return values


class Custom(Mapping):
    """Arbitrary callable; test-only, never accepted from configs."""

    def __init__(self, fn, domain: Domain):
        self.fn = fn
        self.domain = domain

    def _eval(self, x):
        if x.ndim == len(self.domain.shape):
            return np.asarray(self.fn(x))
        return np.stack([np.asarray(self.fn(p)) for p in x])


def _parts(cfg: dict) -> list[Mapping]:
    return [mapping_from_config(c) for c in cfg["parts"]]


def _matrix_sine_bump(cfg: dict) -> MatrixSineBump:
    h = np.asarray(cfg["h_real"], dtype=float)
    return MatrixSineBump(h + 1j * np.asarray(cfg["h_imag"], dtype=float) if "h_imag" in cfg else h)


# config family -> the builder that takes its section
_FAMILIES = {
    "sine": lambda c: Sine(d=int(c.get("d", 1))),
    "cosine": lambda c: Cosine(d=int(c.get("d", 1))),
    "odd_growth": lambda c: OddGrowth(d=int(c.get("d", 1))),
    "quadratic_form": lambda c: QuadraticForm(c["coefficients"], k=int(c.get("k", 1)),
                                              complex_scalars=bool(c.get("complex", False))),
    "matrix_square": lambda c: MatrixSquare(int(c["k"])),
    "monomial": lambda c: Monomial(int(c["degree"]), d=int(c.get("d", 1))),
    "constant": lambda c: ConstantMap(c["value"], d=int(c.get("d", 1))),
    "matrix_sine_bump": _matrix_sine_bump,
    "perturbed": lambda c: Perturbed(mapping_from_config(c["base"]), mapping_from_config(c["bump"]),
                                     float(c.get("amplitude", 1.0))),
    "scaled": lambda c: Scaled(mapping_from_config(c["inner"]), float(c["factor"])),
    "sum": lambda c: SumMapping(_parts(c)),
    "stack": lambda c: Stack(_parts(c)),
}


def mapping_from_config(cfg: dict) -> Mapping:
    """Build a mapping from its serialized form (see harness config schema)."""
    family = cfg.get("family")
    if not (isinstance(family, str) and family in _FAMILIES):
        raise ValueError(f"unknown or non-serializable mapping family {family!r}")
    return _FAMILIES[family](cfg)


# ---------------------------------------------------------------------------
# residual evaluators: one batched kernel, thin per-tuple wrappers

def _residuals(f, P, terms=None, U=None, hats=None):
    """Residuals of the B tuples stacked in P, shape (B, arity, *domain.shape), in one f.batch call.

    With `terms` (coefficients and weights from `term_arrays`) this is the
    signed term sum.  With U, B algebra elements, it is the unitary-twisted fe3
    residual of `approximate_remainder` at n = arity: U acts on the pair
    arguments (`act_block`) and conjugates the single terms
    (`conjugate_block`), or `hats` multiplies them from the left when given.
    Every argument and every sum is formed in the per-tuple order, so a
    residual does not depend on its block.
    """
    B, n = P.shape[:2]
    if U is None:
        coeffs, weights = terms
        V = f.batch(term_arguments(weights, P).reshape((-1,) + P.shape[2:]))
        V = V.reshape((B, len(coeffs)) + V.shape[1:])
        return term_sum(coeffs.reshape((1, -1) + (1,) * (V.ndim - 2)) * V)
    I, J = np.triu_indices(n, 1)
    point = P.shape[2:]
    pairs = act_block(np.repeat(U, len(I), axis=0), (P[:, I] - P[:, J]).reshape((-1,) + point))
    singles = P.sum(axis=1)[:, np.newaxis] - n * P
    V = f.batch(np.concatenate([pairs.reshape((B, -1) + point), singles], axis=1).reshape((-1,) + point))
    V = V.reshape((B, -1) + V.shape[1:])
    singles = V[:, len(I):].reshape((B * n,) + V.shape[2:])
    twisted = (conjugate_block(np.repeat(U, n, axis=0), singles) if hats is None
               else multiply_block(np.repeat(hats, n, axis=0), singles))
    return n * term_sum(V[:, :len(I)]) - term_sum(twisted.reshape((B, n) + V.shape[2:]))


def _one_tuple(f, points) -> np.ndarray:
    """One tuple of points as a block of one, shape (1, arity, *domain.shape)."""
    return np.stack([f._coerce(p) for p in points])[np.newaxis]


def equation_residual(f, eq, points):
    """Left minus right side of an equation, evaluated through f on the points."""
    terms = term_arrays(eq)
    arity = terms[1].shape[1]
    if len(points) != arity:
        raise ValueError(f"equation takes {arity} points, got {len(points)}")
    return _residuals(f, _one_tuple(f, points), terms)[0]


def residual_fe1(f, x, y):
    """f(x+y) + f(x-y) - 2f(x) - 2f(y)."""
    return equation_residual(f, EquationSpec("fe1"), (x, y))


def residual_fe2(f, x, y, z):
    """3f(x-y) + 3f(y-z) + 3f(x-z) - f(y+z-2x) - f(x+z-2y) - f(x+y-2z)."""
    return equation_residual(f, EquationSpec("fe2"), (x, y, z))


def residual_fe3(f, n: int, xs):
    """n * sum_{i<j} f(x_i-x_j) - sum_i f(sum_j x_j - n x_i)."""
    return equation_residual(f, EquationSpec("fe3", n=n), tuple(xs))


def residual_fe3_0(f, a: int, x, y):
    """f(ax+y) + f(x+ay) + (a-1)f(x-y) - (a+1)f(x+y) - (a^2-1)[f(x)+f(y)]."""
    return equation_residual(f, EquationSpec("fe3_0", a=a), (x, y))


def approximate_remainder(f, u, n: int, xs, mode: str | None = None):
    """Unitary-twisted residual: n sum_{i<j} f(u x_i - u x_j) - sum_i u f(sum_j x_j - n x_i) u*.

    With mode "left", "right" or "avg" the single terms are multiplied by the
    self-adjoint companion hat(u, mode) instead of conjugated; that variant
    requires ||u|| = 1 (modulus for scalars, spectral norm for matrices).
    """
    if n < 3:
        raise ValueError("arity n must be >= 3")
    pts = list(xs)
    if len(pts) != n:
        raise ValueError(f"expected {n} points, got {len(pts)}")
    u_arr = np.asarray(u)  # `act_block` refuses an element that does not act on f's points
    hats = None
    if mode is not None:
        norm_u = abs(complex(u_arr)) if u_arr.ndim == 0 else float(np.linalg.norm(u_arr, 2))
        if abs(norm_u - 1.0) > 1e-9:
            raise ValueError(f"element must have unit norm, got {norm_u}")
        hats = np.asarray(hat(u_arr, mode))[np.newaxis]
    return _residuals(f, _one_tuple(f, pts), U=u_arr[np.newaxis], hats=hats)[0]


def value_norm(v) -> float:
    """Default codomain magnitude: |.| for scalars, l2 for vectors, Frobenius for matrices."""
    return codomain_norm(None, v)


def draw_unitary(rng: np.random.Generator, domain: Domain):
    """Sample from the unitary group matching a module's scalar algebra; `_draw_unitaries` of one."""
    return _draw_unitaries(rng, domain, 1)[0]


def _draw_unitaries(rng: np.random.Generator, domain: Domain, count: int) -> np.ndarray:
    """`count` unitaries of the module's scalar algebra, stacked, from one draw.

    On M_k(C) one normal draw and one QR (Haar), on complex scalars exp(2 pi i u),
    on real scalars the sign 1 if u < 1/2 else -1, with u one double per unitary.
    """
    if domain.matrix:
        z = rng.standard_normal((count, 2, domain.k, domain.k))  # the normals of count Ginibre matrices
        return _haar_from_ginibre(_ginibre_from_normals(z))
    if domain.complex_scalars:
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))
    return np.where(rng.random(count) < 0.5, 1.0, -1.0)


class NonFiniteResidualError(ValueError):
    """A sampled residual is NaN or infinite, so it has no place in a sup."""


def _residual_blocks(f, eq, trials: int, seed: int, box: float = 10.0):
    """Yield blocks (P, R): tuples of shape (B, eq.arity, *domain.shape) and their B residuals.

    Every block takes the same draws: its B * eq.arity box points from one
    `_draw_points` call on default_rng(seed), and for fe3 only its B unitaries
    from one `_draw_unitaries` call on that generator's spawned child.  Each
    stream is read in tuple order, so with a fixed seed the samples form a
    prefix chain in `trials`.  A block of `block_length` tuples is one
    `_residuals` call.  At the first non-finite residual the finite rows of its
    block are yielded, then NonFiniteResidualError names that sample.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    unitaries = rng.spawn(1)[0] if eq.id == "fe3" else None
    domain = f.domain
    terms = term_arrays(eq)
    step = block_length(len(terms[0]) * int(np.prod(domain.shape)))
    for start in range(0, trials, step):
        count = min(step, trials - start)
        P = _draw_points(rng, domain.shape, domain.complex_scalars or domain.matrix, count * eq.arity, box)
        P = P.reshape((count, eq.arity) + domain.shape)
        U = None if unitaries is None else _draw_unitaries(unitaries, domain, count)
        R = _residuals(f, P, terms, U)
        finite = np.isfinite(R.reshape(count, -1)).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            if i:
                yield P[:i], R[:i]
            raise NonFiniteResidualError(f"non-finite residual at sample {start + i} (box {box:g})")
        yield P, R


def sample_residuals(f, eq, trials: int, seed: int, box: float = 10.0):
    """Yield (points, residual) for each tuple of `_residual_blocks`, in its order."""
    for P, R in _residual_blocks(f, eq, trials, seed, box):
        yield from zip(map(tuple, P), R)


def empirical_sup_residual(f, eq, trials: int = 1000, seed: int = 0,
                           norm: QuasiNormSpec | None = None, box: float = 10.0) -> float:
    """Max residual norm (`value_norm` when norm is None) over the tuples of `_residual_blocks`.

    With a fixed seed the estimate is monotone nondecreasing in `trials`.
    """
    if not isinstance(eq, EquationSpec):
        raise TypeError("eq must be an EquationSpec")
    sup = 0.0
    for _, R in _residual_blocks(f, eq, trials, seed, box):
        sup = float(np.max(codomain_norms(norm, R), initial=sup))
    return sup
