"""Quasi-normed coordinate spaces and a small matrix *-algebra model.

A quasi-norm relaxes the triangle inequality to
``norm(x + y) <= K * (norm(x) + norm(y))`` for some constant ``K >= 1``,
the modulus of concavity.  The scalars acting on module points are drawn
from M_k(C) with small k; k = 1 recovers the complex numbers.  A module
point is a length-d vector whose coordinates are either scalars or
k x k matrices, and matrix coordinates enter every norm through their
Frobenius norm before the scalar aggregation.

The module action, the conjugation u v u* and the uniform point draw are
written once, on blocks of B elements (`act_block`, `conjugate_block`,
`_draw_points`); `act`, `conjugate_value` and `random_point` are those on a
block of one.  All values are immutable after construction and every
operation here is pure given its inputs, so concurrent evaluation needs no
coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# the order of the published schema's norm kind enum, which reads this tuple
_KINDS = ("euclidean", "l1", "lp_quasi", "weighted")


@dataclass(frozen=True)
class QuasiNormSpec:
    """A norm family together with its exponent p and concavity modulus K.

    K is derived, not given: 2^(1/p - 1) for ``lp_quasi``, and 1 for the other
    kinds, which are genuine norms.  A field the kind does not read is refused:
    p other than 1 off ``lp_quasi``, and weights off ``weighted``.
    """

    kind: str
    dim: int
    p: float = 1.0
    weights: tuple[float, ...] | None = None
    K: float = field(init=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "lp_quasi" and not 0.0 < self.p <= 1.0:
            raise ValueError("lp_quasi requires 0 < p <= 1")
        if self.kind != "lp_quasi" and self.p != 1.0:
            raise ValueError(f"{self.kind} norm reads no p; only lp_quasi does")
        if self.kind != "weighted" and self.weights is not None:
            raise ValueError(f"{self.kind} norm reads no weights; only weighted does")
        if self.kind == "weighted":
            if self.weights is None or len(self.weights) != self.dim:
                raise ValueError("weighted norm needs one positive weight per coordinate")
            if not all(0.0 < w < np.inf for w in self.weights):  # a NaN weight fails both
                raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "K", 2.0 ** (1.0 / self.p - 1.0) if self.kind == "lp_quasi" else 1.0)

    def norm(self, x) -> float:
        return norm_eval(self, x)


def euclidean(dim: int) -> QuasiNormSpec:
    return QuasiNormSpec("euclidean", dim)


def l1(dim: int) -> QuasiNormSpec:
    return QuasiNormSpec("l1", dim)


def lp_quasi(p: float, dim: int) -> QuasiNormSpec:
    return QuasiNormSpec("lp_quasi", dim, p=float(p))


def weighted(weights) -> QuasiNormSpec:
    ws = tuple(float(w) for w in weights)
    return QuasiNormSpec("weighted", len(ws), weights=ws)


def coordinate_magnitudes(x) -> np.ndarray:
    """Per-coordinate magnitude: |.| for scalars, Frobenius norm for matrices."""
    x = np.asarray(x)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim not in (1, 3):
        raise ValueError("module points are 1-d (scalars) or 3-d (matrix coordinates)")
    return _magnitudes(x, matrix=x.ndim == 3)


def _magnitudes(X, matrix: bool) -> np.ndarray:
    """Coordinate magnitudes of points stacked on any leading axes; coordinates come last."""
    if not matrix:
        return np.abs(X)
    return np.sqrt((np.abs(X) ** 2).sum(axis=(-2, -1)))


def _scalar_pow(a, e: float) -> np.ndarray:
    """a ** e elementwise through scalar power, which rounds as the C library's pow.

    numpy's vectorised power differs from it in the last bit on a few percent
    of inputs on some CPUs; scalar powers keep batched norms and residuals equal
    to the per-point ones.
    """
    if isinstance(a, np.generic):  # one point's sum
        return a ** e
    a = np.asarray(a, dtype=float)
    return np.fromiter((v ** e for v in a.ravel()), float, a.size).reshape(a.shape)


def _norms(spec: QuasiNormSpec | None, mags) -> np.ndarray:
    """The quasi-norm of each row of coordinate magnitudes (Euclidean when spec is None)."""
    if spec is not None and mags.shape[-1] != spec.dim:
        raise ValueError(
            f"dimension mismatch: spec.dim={spec.dim}, point has {mags.shape[-1]} coordinates"
        )
    if spec is None or spec.kind == "euclidean":
        return np.sqrt((mags**2).sum(axis=-1))
    if spec.kind == "l1":
        return mags.sum(axis=-1)
    if spec.kind == "weighted":
        return np.sqrt((np.asarray(spec.weights) * mags**2).sum(axis=-1))
    # lp_quasi
    return _scalar_pow((mags**spec.p).sum(axis=-1), 1.0 / spec.p)


def norm_eval(spec: QuasiNormSpec, x) -> float:
    """The quasi-norm of one module point with spec.dim coordinates; `_norms` on a block of one.

    Matrix coordinates contribute their Frobenius norm before aggregation.
    """
    return float(_norms(spec, coordinate_magnitudes(x)))


def codomain_norms(spec: QuasiNormSpec | None, V) -> np.ndarray:
    """Norms of B codomain values stacked on a leading axis; scalars and matrices are one coordinate.

    spec None is |.| for scalars and np.linalg.norm's l2 or Frobenius norm, bit for bit.
    """
    V = np.asarray(V)
    if not 1 <= V.ndim <= 3:
        raise ValueError("codomain values are scalars, vectors, or matrices")
    if spec is None and V.ndim > 1:  # one (1, N) @ (N, 1) product: the dot np.linalg.norm takes
        flat = V.reshape(len(V), 1, -1)
        square = lambda w: (w @ w.swapaxes(1, 2))[:, 0, 0]
        return np.sqrt(square(flat.real) + square(flat.imag) if np.iscomplexobj(V) else square(flat))
    points = V if V.ndim == 2 else V[:, np.newaxis]
    return _norms(spec or l1(1), _magnitudes(points, matrix=V.ndim == 3))


def codomain_norm(spec: QuasiNormSpec | None, v) -> float:
    """`codomain_norms` of one value."""
    return float(codomain_norms(spec, np.asarray(v)[np.newaxis])[0])


def concavity_modulus_estimate(spec: QuasiNormSpec, sampler=None, trials: int = 200, seed: int = 0) -> float:
    """Estimate the smallest workable K as sup ||x+y|| / (||x|| + ||y||) over sampled pairs.

    The default sampler draws all pairs as one (trials, 2, dim) block; a given
    `sampler(rng)` is called once per pair, in order.  Either way the norms are
    evaluated once over the whole block.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    if sampler is None:
        pairs = rng.uniform(-10.0, 10.0, (trials, 2, spec.dim))
    else:
        pairs = np.stack([np.stack(sampler(rng)) for _ in range(trials)])
    if pairs.ndim == 2:  # scalar points are one-coordinate points
        pairs = pairs[..., np.newaxis]
    if pairs.ndim not in (3, 5):
        raise ValueError("module points are 1-d (scalars) or 3-d (matrix coordinates)")
    matrix = pairs.ndim == 5
    norms = _norms(spec, _magnitudes(pairs, matrix))
    denom = norms[:, 0] + norms[:, 1]
    total = _norms(spec, _magnitudes(pairs[:, 0] + pairs[:, 1], matrix))
    keep = denom > 0.0
    # fmax skips a NaN ratio, as a running max(best, ratio) does
    return float(np.fmax.reduce(total[keep] / denom[keep], initial=0.0))


def _ginibre_from_normals(z) -> np.ndarray:
    """Ginibre matrices from normals of shape (..., 2, k, k): the real parts, then the imaginary parts."""
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)


def _haar_from_ginibre(z) -> np.ndarray:
    """Haar unitaries from Ginibre matrices stacked on leading axes: one QR, phases fixed."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    safe = np.where(np.abs(d) > 0, d, 1.0)
    return q * (safe / np.abs(safe))[..., np.newaxis, :]


def sample_unitary(k: int, seed: int = 0) -> np.ndarray:
    """Deterministic Haar-random unitary in M_k(C) for the given seed."""
    if k < 1:
        raise ValueError("k must be >= 1")
    normals = np.random.default_rng(seed).standard_normal((2, k, k))
    return _haar_from_ginibre(_ginibre_from_normals(normals))


def hat(a, mode: str = "avg"):
    """Self-adjoint companion of an algebra element: aa*, a*a, or their mean."""
    if mode not in ("left", "right", "avg"):
        raise ValueError(f"unknown mode {mode!r}, expected left|right|avg")
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        return float((a * np.conj(a)).real)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("algebra elements are scalars or square matrices")
    if mode == "left":
        return a @ a.conj().T
    if mode == "right":
        return a.conj().T @ a
    return (a @ a.conj().T + a.conj().T @ a) / 2.0


def act(u, x) -> np.ndarray:
    """Module action of an algebra element on a point, coordinatewise from the left."""
    return act_block(np.asarray(u)[np.newaxis], np.asarray(x)[np.newaxis])[0]


def act_block(U, X) -> np.ndarray:
    """`act` of B elements on B points: U is (B,) or (B, k, k), X is (B, d) or (B, d, k, k)."""
    if X.ndim not in (2, 4):
        raise ValueError("module points are 1-d or 3-d arrays")
    if U.ndim == 1:
        return multiply_block(U, X)
    if X.ndim == 2:
        raise ValueError("scalar module coordinates need a scalar algebra element")
    if U.shape[1:] != X.shape[2:]:
        raise ValueError(f"algebra dimension mismatch: element {U.shape[1:]}, "
                         f"coordinates {X.shape[2:]}")
    return np.einsum("zab,zibc->ziac", U, X)


def multiply_block(H, V):
    """Left products h v of B algebra elements with B codomain values: H is (B,) or (B, k, k)."""
    return _lead(H, V.ndim) * V if H.ndim == 1 else H @ V


def conjugate_value(u, b):
    """Conjugation u b u* on a codomain value; for scalar u this is |u|^2 b."""
    return conjugate_block(np.asarray(u)[np.newaxis], np.asarray(b)[np.newaxis])[0]


def conjugate_block(U, V):
    """`conjugate_value` of B elements on B codomain values: U is (B,) or (B, k, k)."""
    if U.ndim == 1:
        return multiply_block(U, V) * np.conj(_lead(U, V.ndim))
    if U.ndim != 3 or V.shape[1:] != U.shape[1:]:
        raise ValueError("matrix conjugation needs a matching square codomain value")
    return multiply_block(U, V) @ U.conj().swapaxes(-1, -2)


def _lead(a, ndim: int):
    """B scalars, shape (B,), as an array broadcastable against B-leading arrays of ndim."""
    return a.reshape(a.shape + (1,) * (ndim - 1))


def random_point(rng: np.random.Generator, d: int, k: int = 1, box: float = 10.0,
                 complex_coords: bool | None = None) -> np.ndarray:
    """Uniform module point with coordinates in [-box, box] (per real component); `_draw_points` of one."""
    shape = (d,) if k == 1 else (d, k, k)
    return _draw_points(rng, shape, k > 1 if complex_coords is None else complex_coords, 1, box)[0]


def _draw_points(rng: np.random.Generator, shape: tuple, complex_coords: bool, count: int,
                 box: float) -> np.ndarray:
    """`count` uniform points of `shape` on a leading axis; a complex block draws its real parts first."""
    if not complex_coords:
        return rng.uniform(-box, box, (count,) + shape)
    u = rng.uniform(-box, box, (count, 2) + shape)
    return u[:, 0] + 1j * u[:, 1]
