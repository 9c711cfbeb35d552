"""Evaluatable mapping families and residual evaluators for the equation zoo.

Mappings are closed-form families rather than bare callables so experiment
configurations stay serializable; ``Custom`` is the escape hatch for tests.
Residuals come back as codomain values (scalar, vector, or matrix) so real-
and matrix-valued mappings share one code path; take norms separately.
`approximate_remainder` is the one unitary-twisted residual (conjugation, or
a self-adjoint companion via `mode`), and `sample_residuals` is the one
seeded sampler of residuals that the empirical sup, the control fits and the
consistency check all read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _haar_unitary, act, conjugate_value, hat, random_point
from .equations import EquationSpec, equation_terms


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
    """Base class; subclasses implement __call__ on a single module point."""

    domain: Domain

    def __call__(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def _coerce(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.ndim == 2 and self.domain.matrix and self.domain.d == 1:
            x = x[np.newaxis]
        if x.shape != self.domain.shape:
            raise ValueError(f"domain mismatch: expected point of shape {self.domain.shape}, got {x.shape}")
        return x


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

    def __call__(self, x):
        x = self._coerce(x)
        M = self.coefficients
        if x.ndim == 1:
            if np.iscomplexobj(x):
                return float(np.real(np.conj(x) @ M @ x))
            return float(x @ M @ x)
        k = self.domain.k
        out = np.zeros((k, k), dtype=complex)
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                if M[i, j] != 0.0:
                    out += M[i, j] * (x[i] @ x[j].conj().T)
        return out


class MatrixSquare(Mapping):
    """Single matrix coordinate x -> x x*."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.domain = Domain(1, k=k, complex_scalars=True)

    def __call__(self, x):
        x = self._coerce(x)
        if x.ndim == 1:
            return float(np.abs(x[0]) ** 2)
        return x[0] @ x[0].conj().T


class Coordinatewise(Mapping):
    """x -> sum_i g(x_i) on a real scalar domain, for an elementwise array function g."""

    def __init__(self, g, d: int = 1):
        self.g = g
        self.domain = Domain(d)

    def __call__(self, x):
        return float(self.g(self._coerce(x)).sum())


class Monomial(Coordinatewise):
    """Coordinatewise power sum: x -> sum_i x_i^degree."""

    def __init__(self, degree: int, d: int = 1):
        self.degree = degree = int(degree)
        super().__init__(lambda x: x**degree, d)


class ConstantMap(Mapping):
    def __init__(self, value, d: int = 1, k: int = 1, complex_scalars: bool = False):
        self.value = np.asarray(value, dtype=float) if np.ndim(value) else float(value)
        self.domain = Domain(d, k=k, complex_scalars=complex_scalars)

    def __call__(self, x):
        self._coerce(x)
        return self.value


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
        if np.linalg.norm(H - H.conj().T) > 1e-12 * max(1.0, np.linalg.norm(H)):
            raise ValueError("h must be self-adjoint")
        self.h = H
        self.domain = Domain(1, k=H.shape[0], complex_scalars=True)

    def __call__(self, x):
        x = self._coerce(x)
        return np.sin(float(np.trace(x[0]).real)) * self.h


class Perturbed(Mapping):
    """base(x) + amplitude * bump(x)."""

    def __init__(self, base: Mapping, bump: Mapping, amplitude: float):
        if base.domain != bump.domain:
            raise ValueError("base and bump must share a domain")
        self.base = base
        self.bump = bump
        self.amplitude = float(amplitude)
        self.domain = base.domain

    def __call__(self, x):
        return self.base(x) + self.amplitude * np.asarray(self.bump(x))


class Scaled(Mapping):
    def __init__(self, inner: Mapping, factor: float):
        self.inner = inner
        self.factor = float(factor)
        self.domain = inner.domain

    def __call__(self, x):
        return self.factor * np.asarray(self.inner(x))


class SumMapping(Mapping):
    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("sum needs at least one part")
        if any(p.domain != parts[0].domain for p in parts):
            raise ValueError("summands must share a domain")
        self.parts = parts
        self.domain = parts[0].domain

    def __call__(self, x):
        total = np.asarray(self.parts[0](x))
        for p in self.parts[1:]:
            total = total + np.asarray(p(x))
        return total


class Stack(Mapping):
    """Stack scalar-codomain mappings into a vector-valued one."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("stack needs at least one part")
        if any(p.domain != parts[0].domain for p in parts):
            raise ValueError("stacked parts must share a domain")
        self.parts = parts
        self.domain = parts[0].domain

    def __call__(self, x):
        return np.array([float(p(x)) for p in self.parts])


class Tabulated(Mapping):
    """Function table over the group (Z/q)^d; arguments are integer coordinate vectors."""

    def __init__(self, table, q: int, d: int = 1):
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (q**d,):
            raise ValueError(f"table must have q^d = {q**d} entries")
        self.table = table % q
        self.q = int(q)
        self.domain = Domain(d)

    def __call__(self, x):
        coords = np.asarray(x, dtype=np.int64).reshape(self.domain.d) % self.q
        idx = 0
        for j in range(self.domain.d - 1, -1, -1):
            idx = idx * self.q + int(coords[j])
        return int(self.table[idx])


class Custom(Mapping):
    """Arbitrary callable; test-only, never accepted from configs."""

    def __init__(self, fn, domain: Domain):
        self.fn = fn
        self.domain = domain

    def __call__(self, x):
        return self.fn(self._coerce(x))


# config family -> the coordinatewise bumps that take only `d`
_BUMPS = {"sine": Sine, "cosine": Cosine, "odd_growth": OddGrowth}


def mapping_from_config(cfg: dict) -> Mapping:
    """Build a mapping from its serialized form (see harness config schema)."""
    family = cfg.get("family")
    if isinstance(family, str) and family in _BUMPS:
        return _BUMPS[family](d=int(cfg.get("d", 1)))
    if family == "quadratic_form":
        return QuadraticForm(
            cfg["coefficients"],
            k=int(cfg.get("k", 1)),
            complex_scalars=bool(cfg.get("complex", False)),
        )
    if family == "matrix_square":
        return MatrixSquare(int(cfg["k"]))
    if family == "monomial":
        return Monomial(int(cfg["degree"]), d=int(cfg.get("d", 1)))
    if family == "constant":
        return ConstantMap(cfg["value"], d=int(cfg.get("d", 1)))
    if family == "matrix_sine_bump":
        h = np.asarray(cfg["h_real"], dtype=float)
        if "h_imag" in cfg:
            h = h + 1j * np.asarray(cfg["h_imag"], dtype=float)
        return MatrixSineBump(h)
    if family == "perturbed":
        return Perturbed(
            mapping_from_config(cfg["base"]),
            mapping_from_config(cfg["bump"]),
            float(cfg.get("amplitude", 1.0)),
        )
    if family == "scaled":
        return Scaled(mapping_from_config(cfg["inner"]), float(cfg["factor"]))
    if family == "sum":
        return SumMapping([mapping_from_config(c) for c in cfg["parts"]])
    if family == "stack":
        return Stack([mapping_from_config(c) for c in cfg["parts"]])
    if family == "tabulated":
        return Tabulated(cfg["table"], q=int(cfg["q"]), d=int(cfg.get("d", 1)))
    raise ValueError(f"unknown or non-serializable mapping family {family!r}")


# ---------------------------------------------------------------------------
# residual evaluators


def _term_residual(f, terms, pts):
    stacked = np.stack([np.asarray(p) for p in pts])
    acc = None
    for coeff, w in terms:
        arg = np.tensordot(np.asarray(w), stacked, axes=1)
        val = np.asarray(f(arg))
        acc = coeff * val if acc is None else acc + coeff * val
    return acc


def equation_residual(f, eq, points):
    """Left minus right side of an equation, evaluated through f on the points."""
    terms, arity = equation_terms(eq)
    if len(points) != arity:
        raise ValueError(f"equation takes {arity} points, got {len(points)}")
    return _term_residual(f, terms, points)


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
    pts = [np.asarray(x) for x in xs]
    if len(pts) != n:
        raise ValueError(f"expected {n} points, got {len(pts)}")
    u_arr = np.asarray(u)
    if f.domain.matrix and u_arr.ndim == 2 and u_arr.shape != (f.domain.k, f.domain.k):
        raise ValueError(
            f"algebra dimension mismatch: unitary {u_arr.shape}, module expects k={f.domain.k}"
        )
    if mode is None:
        twist = lambda v: conjugate_value(u_arr, v)
    else:
        norm_u = abs(complex(u_arr)) if u_arr.ndim == 0 else float(np.linalg.norm(u_arr, 2))
        if abs(norm_u - 1.0) > 1e-9:
            raise ValueError(f"element must have unit norm, got {norm_u}")
        u_hat = hat(u_arr, mode)
        twist = lambda v: u_hat @ v if np.ndim(u_hat) == 2 else u_hat * v
    pair_sum = None
    for i in range(n):
        for j in range(i + 1, n):
            val = np.asarray(f(act(u_arr, pts[i] - pts[j])))
            pair_sum = val if pair_sum is None else pair_sum + val
    total = np.sum(np.stack(pts), axis=0)
    single_sum = None
    for i in range(n):
        val = twist(np.asarray(f(total - n * pts[i])))
        single_sum = val if single_sum is None else single_sum + val
    return n * pair_sum - single_sum


def value_norm(v) -> float:
    """Default codomain magnitude: |.| for scalars, l2 for vectors, Frobenius for matrices."""
    v = np.asarray(v)
    if v.ndim == 0:
        return float(abs(v))
    return float(np.linalg.norm(v))


def draw_unitary(rng: np.random.Generator, domain: Domain):
    """Sample from the unitary group matching a module's scalar algebra."""
    if domain.matrix:
        return _haar_unitary(rng, domain.k)
    if domain.complex_scalars:
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return float(rng.choice((-1.0, 1.0)))


class NonFiniteResidualError(ValueError):
    """A sampled residual is NaN or infinite, so it has no place in a sup."""


def sample_residuals(f, eq, trials: int, seed: int, box: float = 10.0):
    """Yield (points, residual) for `trials` sampled tuples; fe3 also twists by a unitary.

    One default_rng(seed) draws, per tuple, eq.arity box points and then, for
    fe3 only, one unitary.  Fitted controls and preset CSVs depend on this
    order, and with a fixed seed the samples form a prefix chain in `trials`.
    Raises NonFiniteResidualError at the first residual that is not finite.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for t in range(trials):
        pts = tuple(f.domain.random(rng, box=box) for _ in range(eq.arity))
        if eq.id == "fe3":
            val = approximate_remainder(f, draw_unitary(rng, f.domain), eq.n, pts)
        else:
            val = equation_residual(f, eq, pts)
        if not np.isfinite(val).all():
            raise NonFiniteResidualError(f"non-finite residual at sample {t} (box {box:g})")
        yield pts, val


def empirical_sup_residual(f, eq, trials: int = 1000, seed: int = 0,
                           norm=None, box: float = 10.0) -> float:
    """Max residual norm over the tuples of `sample_residuals`.

    With a fixed seed the estimate is monotone nondecreasing in `trials`.
    """
    if not isinstance(eq, EquationSpec):
        raise TypeError("eq must be an EquationSpec")
    norm = norm or value_norm
    sup = 0.0
    for _, val in sample_residuals(f, eq, trials, seed, box):
        sup = max(sup, norm(val))
    return sup
