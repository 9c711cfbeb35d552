"""Quasi-normed coordinate spaces and a small matrix *-algebra model.

A quasi-norm relaxes the triangle inequality to
``norm(x + y) <= K * (norm(x) + norm(y))`` for some constant ``K >= 1``,
the modulus of concavity.  The scalars acting on module points are drawn
from M_k(C) with small k; k = 1 recovers the complex numbers.  A module
point is a length-d vector whose coordinates are either scalars or
k x k matrices, and matrix coordinates enter every norm through their
Frobenius norm before the scalar aggregation.

The module action and the conjugation u v u* are written once, on blocks of
B elements (`act_block`, `conjugate_block`); `act` and `conjugate_value` are
those on a block of one.  All values are immutable after construction and
every operation here is pure given its inputs, so concurrent evaluation
needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATOL = 1e-10
UNITARY_TOL = 1e-10

_KINDS = ("lp_quasi", "euclidean", "l1", "weighted")


@dataclass(frozen=True)
class QuasiNormSpec:
    """A norm family together with its exponent p and concavity modulus K.

    For ``lp_quasi`` the modulus is forced to K = 2^(1/p - 1); the other
    kinds are genuine norms with K = 1.
    """

    kind: str
    dim: int
    p: float = 1.0
    K: float = 1.0
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "lp_quasi":
            if not 0.0 < self.p <= 1.0:
                raise ValueError("lp_quasi requires 0 < p <= 1")
            expected = 2.0 ** (1.0 / self.p - 1.0)
            if abs(self.K - expected) > 1e-9 * expected:
                raise ValueError("lp_quasi requires K = 2^(1/p - 1)")
        elif self.K < 1.0:
            raise ValueError("K must be >= 1")
        if self.kind == "weighted":
            if self.weights is None or len(self.weights) != self.dim:
                raise ValueError("weighted norm needs one positive weight per coordinate")
            if any(w <= 0.0 for w in self.weights):
                raise ValueError("weights must be positive")

    def norm(self, x) -> float:
        return norm_eval(self, x)


def euclidean(dim: int) -> QuasiNormSpec:
    return QuasiNormSpec("euclidean", dim)


def l1(dim: int) -> QuasiNormSpec:
    return QuasiNormSpec("l1", dim)


def lp_quasi(p: float, dim: int) -> QuasiNormSpec:
    p = float(p)
    return QuasiNormSpec("lp_quasi", dim, p=p, K=2.0 ** (1.0 / p - 1.0))


def weighted(weights) -> QuasiNormSpec:
    ws = tuple(float(w) for w in weights)
    return QuasiNormSpec("weighted", len(ws), weights=ws)


def module_point(coords) -> np.ndarray:
    """Normalize input into a module point: shape (d,) or (d, k, k)."""
    x = np.asarray(coords)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim == 2 and x.shape[0] == x.shape[1]:
        # single matrix coordinate
        x = x[np.newaxis]
    if x.ndim not in (1, 3):
        raise ValueError("module points are 1-d scalar vectors or 3-d stacks of square matrices")
    if x.ndim == 3 and x.shape[1] != x.shape[2]:
        raise ValueError("matrix coordinates must be square")
    if not np.all(np.isfinite(x if not np.iscomplexobj(x) else x.view(float))):
        raise ValueError("module point entries must be finite")
    return x


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


def _ginibre(rng: np.random.Generator, k: int) -> np.ndarray:
    """A k x k complex Ginibre matrix, the raw draw behind one Haar unitary."""
    return (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)


def _haar_from_ginibre(z) -> np.ndarray:
    """Haar unitaries from Ginibre matrices stacked on leading axes: one QR, phases fixed."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    safe = np.where(np.abs(d) > 0, d, 1.0)
    return q * (safe / np.abs(safe))[..., np.newaxis, :]


def _haar_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    """Haar-distributed k x k unitary: QR of a complex Ginibre matrix, phases fixed."""
    return _haar_from_ginibre(_ginibre(rng, k))


def sample_unitary(k: int, seed: int = 0) -> np.ndarray:
    """Deterministic Haar-random unitary in M_k(C) for the given seed."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    return _haar_unitary(rng, k)


def is_unitary(u, tol: float = UNITARY_TOL) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim == 0:
        return abs(abs(complex(u)) - 1.0) <= tol
    ident = np.eye(u.shape[0])
    return float(np.linalg.norm(u @ u.conj().T - ident)) <= tol


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
    """Uniform module point with coordinates in [-box, box] (per real component)."""
    if complex_coords is None:
        complex_coords = k > 1
    shape = (d,) if k == 1 else (d, k, k)
    x = rng.uniform(-box, box, shape)
    if complex_coords:
        x = x + 1j * rng.uniform(-box, box, shape)
    return x
