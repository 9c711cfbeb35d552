"""Exact solution spaces of the equation family over finite vector groups.

Each equation instantiates pointwise over the group (Z/q)^d as exact linear
constraints on function tables F: (Z/q)^d -> Z/q, one row per argument
tuple.  Nullspaces come from GF(q) Gaussian elimination.  Large tuple sets
are streamed: a basis is built from a structured prefix (zero, one-hot,
pair, and repeat substitution tuples) and every remaining row is verified
against the candidate nullspace, since over a field a row annihilates
null(B) exactly when it lies in rowspace(B).  Violating rows are folded
into the basis, so the result equals full elimination of the streamed
system.

The codomain is Z/q itself: maps into characteristic-zero groups are
killed by torsion, which would make the oracle vacuous.

This module also hosts the inner-product-space characterization of real
normed spaces, which shares the equation term lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import QuasiNormSpec, norm_eval
from .equations import EquationSpec, equation_terms

MAX_COLUMNS = 10**4
FULL_STREAM_CAP = 8_000_000
SAMPLE_TUPLES = 10**6
SAMPLE_SEED = 74025
_CHUNK = 200_000


class InadmissibleGroupError(ValueError):
    """The modulus divides an obstruction factor of the equation's derivation."""

    def __init__(self, message: str, factor_name: str | None = None, factor: int | None = None):
        super().__init__(message)
        self.factor_name = factor_name
        self.factor = factor


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class GroupSpec:
    """The finite vector group (Z/q)^d for an odd prime q >= 5."""

    q: int
    d: int = 1

    def __post_init__(self):
        if not _is_prime(self.q) or self.q < 5:
            raise ValueError("q must be a prime >= 5")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def size(self) -> int:
        return self.q**self.d

    def decode_table(self) -> np.ndarray:
        return _decode_table(self.q, self.d)

    def encode(self, coords) -> np.ndarray | int:
        """Index of a coordinate vector (or batch of them), base-q little endian."""
        c = np.asarray(coords, dtype=np.int64) % self.q
        if c.ndim == 1 and c.shape[0] == self.d:
            return int(c @ _powers(self.q, self.d))
        return c @ _powers(self.q, self.d)

    def add(self, i, j):
        return self.encode(self.decode_table()[np.asarray(i)] + self.decode_table()[np.asarray(j)])

    def sub(self, i, j):
        return self.encode(self.decode_table()[np.asarray(i)] - self.decode_table()[np.asarray(j)])


@lru_cache(maxsize=None)
def _decode_table(q: int, d: int):
    size = q**d
    idx = np.arange(size, dtype=np.int64)
    coords = np.empty((size, d), dtype=np.int32)
    for j in range(d):
        coords[:, j] = (idx // q**j) % q
    coords.setflags(write=False)
    return coords


def _term_columns(group: GroupSpec, coords: np.ndarray, weights) -> np.ndarray:
    """Column indices of sum_l w_l x_l given pre-decoded coords (B, arity, d)."""
    combo = None
    for l, wl in enumerate(weights):
        if wl == 0:
            continue
        part = coords[:, l, :] * np.int32(wl)
        combo = part if combo is None else combo + part
    if combo is None:
        return np.zeros(coords.shape[0], dtype=np.int64)
    combo %= np.int32(group.q)
    return combo @ _powers(group.q, group.d)


@lru_cache(maxsize=None)
def _powers(q: int, d: int):
    p = q ** np.arange(d, dtype=np.int64)
    p.setflags(write=False)
    return p


# ---------------------------------------------------------------------------
# admissibility


def _obstruction_factors(a: int) -> list[tuple[str, int]]:
    a = abs(int(a))
    base = [("2", 2), ("3", 3)]
    if a <= 2:
        # covered by the three-variable reduction, whose derivation divides
        # only by 2 and 3 (a = 0 reduces directly)
        return base
    return base + [
        ("a-1", a - 1),
        ("a+1", a + 1),
        ("2a-1", 2 * a - 1),
        ("2a+1", 2 * a + 1),
        ("3a^2-3a+12", 3 * a * a - 3 * a + 12),
    ]


def obstruction_factors(eq: EquationSpec) -> list[tuple[str, int]]:
    if eq.id in ("fe1", "fe2"):
        return _obstruction_factors(2)
    if eq.id == "fe3":
        return _obstruction_factors(eq.n - 1)
    return _obstruction_factors(eq.a)


def obstruction_product(eq: EquationSpec) -> int:
    out = 1
    for _, f in obstruction_factors(eq):
        out *= f
    return out


def check_admissible(eq, G: GroupSpec) -> None:
    """Reject (q, equation) pairs whose derivation is characteristic-sensitive."""
    if not isinstance(eq, EquationSpec):
        return  # raw term lists carry no equivalence claim
    for name, factor in obstruction_factors(eq):
        if factor % G.q == 0:
            raise InadmissibleGroupError(
                f"q={G.q} divides obstruction factor {name}={factor} for {eq.label()}",
                factor_name=name,
                factor=factor,
            )
    a = None
    if eq.id == "fe3_0":
        a = int(eq.a)
    elif eq.id == "fe3":
        a = int(eq.n) - 1
    if a is not None:
        r = a % G.q
        if r in (1, G.q - 1) and abs(a) != 1:
            raise InadmissibleGroupError(
                f"a={a} reduces to +-1 mod q={G.q} for {eq.label()}",
                factor_name="a mod q",
                factor=a,
            )
        if r == 0 and a != 0:
            raise InadmissibleGroupError(
                f"a={a} reduces to 0 mod q={G.q} for {eq.label()}",
                factor_name="a mod q",
                factor=a,
            )


# ---------------------------------------------------------------------------
# constraint matrices


class ConstraintMatrix:
    """Pointwise instantiation of an equation over a group, one row per tuple.

    Rows are streamed rather than materialized: `tuple_batches` yields the
    defining argument tuples (full enumeration, or the documented structured
    + fixed-seed subsample when the full set is too large) and `densify`
    turns a batch of tuples into dense GF(q) rows.
    """

    def __init__(self, eq, group: GroupSpec):
        self.terms, self.arity = equation_terms(eq)
        self.eq = eq if isinstance(eq, EquationSpec) else None
        self.group = group
        total = group.size**self.arity
        if total <= FULL_STREAM_CAP:
            self.plan = "full"
            self.n_rows = total
        else:
            self.plan = "subsample"
            self.n_rows = len(structured_tuples(group, self.arity)) + SAMPLE_TUPLES

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.group.size)

    def tuple_batches(self, chunk: int = _CHUNK):
        size = self.group.size
        if self.plan == "full":
            total = size**self.arity
            for start in range(0, total, chunk):
                idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
                batch = np.empty((idx.shape[0], self.arity), dtype=np.int64)
                for l in range(self.arity):
                    batch[:, l] = (idx // size**l) % size
                yield batch
            return
        structured = structured_tuples(self.group, self.arity)
        for start in range(0, structured.shape[0], chunk):
            yield structured[start:start + chunk]
        rng = np.random.default_rng(SAMPLE_SEED)
        remaining = SAMPLE_TUPLES
        while remaining > 0:
            take = min(chunk, remaining)
            yield rng.integers(0, size, size=(take, self.arity), dtype=np.int64)
            remaining -= take

    def densify(self, tuples: np.ndarray) -> np.ndarray:
        q = self.group.q
        coords = self.group.decode_table()[tuples]
        rows = np.zeros((tuples.shape[0], self.group.size), dtype=np.int64)
        ar = np.arange(tuples.shape[0])
        for coeff, w in self.terms:
            cols = _term_columns(self.group, coords, w)
            np.add.at(rows, (ar, cols), coeff % q)
        return rows % q


def structured_tuples(group: GroupSpec, arity: int) -> np.ndarray:
    """Substitution patterns that pin the solution space: zero, one-hot in
    every slot, (x, ..., x, 0), (x, ..., x), and all pairs in the first two
    slots."""
    size = group.size
    blocks = [np.zeros((1, arity), dtype=np.int64)]
    xs = np.arange(1, size, dtype=np.int64)
    for slot in range(arity):
        block = np.zeros((size - 1, arity), dtype=np.int64)
        block[:, slot] = xs
        blocks.append(block)
    if arity >= 2:
        rep = np.tile(xs[:, None], (1, arity))
        blocks.append(rep.copy())
        rep0 = rep.copy()
        rep0[:, -1] = 0
        blocks.append(rep0)
        grid_x, grid_y = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        pairs = np.zeros((size * size, arity), dtype=np.int64)
        pairs[:, 0] = grid_x.ravel()
        pairs[:, 1] = grid_y.ravel()
        blocks.append(pairs)
    return np.vstack(blocks)


def enumerate_constraints(eq, G: GroupSpec) -> ConstraintMatrix:
    """Instantiate an equation over the group, after the admissibility gate."""
    check_admissible(eq, G)
    return ConstraintMatrix(eq, G)


# ---------------------------------------------------------------------------
# exact GF(q) linear algebra


def gf_rref(mat: np.ndarray, q: int) -> np.ndarray:
    """Reduced row-echelon form over GF(q); returns the nonzero rows."""
    A = np.array(mat, dtype=np.int64) % q
    rows, cols = A.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            A[[r, p]] = A[[p, r]]
        A[r] = (A[r] * pow(int(A[r, c]), -1, q)) % q
        below = A[r + 1:, c]
        bnz = np.nonzero(below)[0]
        if bnz.size:
            A[r + 1 + bnz] = (A[r + 1 + bnz] - np.outer(below[bnz], A[r])) % q
        pivots.append(c)
        r += 1
    R = A[:r]
    for i in range(r - 1, -1, -1):
        c = pivots[i]
        above = R[:i, c]
        anz = np.nonzero(above)[0]
        if anz.size:
            R[anz] = (R[anz] - np.outer(above[anz], R[i])) % q
    return R


def _pivot_columns(R: np.ndarray) -> np.ndarray:
    if R.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return np.argmax(R != 0, axis=1)


def gf_nullspace(R: np.ndarray, q: int, cols: int) -> np.ndarray:
    """Nullspace basis (as columns) of a matrix already in reduced echelon form."""
    pivots = _pivot_columns(R)
    free = np.setdiff1d(np.arange(cols), pivots)
    N = np.zeros((cols, free.shape[0]), dtype=np.int64)
    for j, fc in enumerate(free):
        N[fc, j] = 1
        if R.shape[0]:
            N[pivots, j] = (-R[:, fc]) % q
    return N


def _residual_nonzero(M: ConstraintMatrix, tuples: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Boolean matrix: does the row for tuple b fail to annihilate candidate column j?

    Sums stay far below int32 range: |coeff| and candidate entries are O(q).
    """
    q = M.group.q
    cand = np.ascontiguousarray(candidates.astype(np.int32, copy=False))
    coords = M.group.decode_table()[tuples]
    acc = np.zeros((tuples.shape[0], cand.shape[1]), dtype=np.int32)
    for coeff, w in M.terms:
        cols = _term_columns(M.group, coords, w)
        acc += np.int32(coeff % q) * cand[cols, :]
    acc %= np.int32(q)
    return acc != 0


def _stream_nullspace(M: ConstraintMatrix, extra: np.ndarray | None = None):
    """Exact nullspace of the streamed system; also reports which `extra`
    columns (candidate function vectors) satisfy every streamed constraint.

    Works because over a field a row annihilates null(B) iff it lies in
    rowspace(B): verified rows are provably redundant, violating rows are
    folded into the basis in bounded merges.
    """
    size = M.group.size
    q = M.group.q
    if size > MAX_COLUMNS:
        raise ValueError(f"dense elimination capped at {MAX_COLUMNS} columns, group has {size}")
    boot = structured_tuples(M.group, M.arity)
    first = min(boot.shape[0], max(2 * size, 512))
    basis = gf_rref(M.densify(boot[:first]), q)
    null = gf_nullspace(basis, q, size)
    extra_ok = np.ones(extra.shape[1], dtype=bool) if extra is not None else None
    merge_cap = max(4 * size, 512)

    def absorb(tuples: np.ndarray):
        nonlocal basis, null
        live = np.nonzero(extra_ok)[0] if extra is not None else np.empty(0, dtype=np.int64)
        k = null.shape[1]
        parts = []
        if k:
            parts.append(null)
        if live.size:
            parts.append(extra[:, live])
        if not parts:
            return
        nz = _residual_nonzero(M, tuples, np.concatenate(parts, axis=1))
        if live.size:
            bad_cols = nz[:, k:].any(axis=0)
            extra_ok[live[bad_cols]] = False
        if not k:
            return
        pending = tuples[nz[:, :k].any(axis=1)]
        while pending.shape[0] and null.shape[1]:
            take = pending[:merge_cap]
            basis = gf_rref(np.vstack([basis, M.densify(take)]), q)
            null = gf_nullspace(basis, q, size)
            pending = pending[take.shape[0]:]
            if pending.shape[0] and null.shape[1]:
                pending = pending[_residual_nonzero(M, pending, null).any(axis=1)]

    for start in range(first, boot.shape[0], _CHUNK):
        absorb(boot[start:start + _CHUNK])
    for batch in M.tuple_batches():
        absorb(batch)
    return null, extra_ok


def nullspace_basis(M, q: int | None = None) -> list[np.ndarray]:
    """Basis of {f : Mf = 0}; dimension = columns - rank.

    Accepts a ConstraintMatrix, or a dense integer matrix together with q.
    """
    if isinstance(M, ConstraintMatrix):
        null, _ = _stream_nullspace(M)
        return [null[:, j].copy() for j in range(null.shape[1])]
    if q is None:
        raise ValueError("dense matrices need the modulus q")
    A = np.asarray(M, dtype=np.int64)
    R = gf_rref(A, q)
    null = gf_nullspace(R, q, A.shape[1])
    return [null[:, j].copy() for j in range(null.shape[1])]


def constraints_hold(M: ConstraintMatrix, vectors) -> np.ndarray:
    """For each function vector, does it satisfy every streamed constraint of M?"""
    cand = np.stack([np.asarray(v, dtype=np.int64) % M.group.q for v in vectors], axis=1)
    ok = np.ones(cand.shape[1], dtype=bool)
    for batch in M.tuple_batches():
        live = np.nonzero(ok)[0]
        if live.size == 0:
            break
        bad = _residual_nonzero(M, batch, cand[:, live]).any(axis=0)
        ok[live[bad]] = False
    return ok


@dataclass
class SpaceComparison:
    equal: bool
    dim_left: int
    dim_right: int
    certificate: np.ndarray | None = None
    side: str | None = None

    def __bool__(self) -> bool:
        return self.equal


def spaces_equal(eqA, eqB, G: GroupSpec) -> SpaceComparison:
    """Do the two equations have the same solution space over the group?

    Checked by equal dimension plus mutual containment; when false, the
    certificate is a function table solving one equation but not the other.
    """
    MA = enumerate_constraints(eqA, G)
    MB = enumerate_constraints(eqB, G)
    nb = nullspace_basis(MB)
    NB = (np.stack(nb, axis=1) if nb
          else np.zeros((G.size, 0), dtype=np.int64))
    NA_mat, nb_ok = _stream_nullspace(MA, extra=NB)
    dim_a, dim_b = NA_mat.shape[1], NB.shape[1]
    if nb_ok is not None and not nb_ok.all():
        j = int(np.nonzero(~nb_ok)[0][0])
        return SpaceComparison(False, dim_a, dim_b, certificate=NB[:, j].copy(), side="right-only")
    na_ok = constraints_hold(MB, [NA_mat[:, j] for j in range(dim_a)]) if dim_a else np.ones(0, bool)
    if not na_ok.all():
        j = int(np.nonzero(~na_ok)[0][0])
        return SpaceComparison(False, dim_a, dim_b, certificate=NA_mat[:, j].copy(), side="left-only")
    return SpaceComparison(dim_a == dim_b, dim_a, dim_b)


# ---------------------------------------------------------------------------
# polarization and the diagonal check


def biadditive_from_quadratic(Q, x, y, group: GroupSpec | None = None):
    """Recover the symmetric biadditive companion B(x, y) of a quadratic map.

    Real codomain: B = [Q(x+y) - Q(x-y)] / 4.  Complex scalars additionally
    use the two imaginary-twisted terms.  Over (Z/q)^d the same two-term
    formula applies with the inverse of 4 mod q.
    """
    if group is not None:
        q = group.q
        inv4 = pow(4, -1, q)
        table = np.asarray(Q, dtype=np.int64) % q
        xi = x if np.isscalar(x) else group.encode(x)
        yi = y if np.isscalar(y) else group.encode(y)
        plus = int(table[group.add(xi, yi)])
        minus = int(table[group.sub(xi, yi)])
        return (inv4 * (plus - minus)) % q
    x = np.asarray(x)
    y = np.asarray(y)
    dom = getattr(Q, "domain", None)
    complex_scalars = bool(dom.complex_scalars) if dom is not None else (
        np.iscomplexobj(x) or np.iscomplexobj(y))
    if complex_scalars:
        return (Q(x + y) - Q(x - y) + 1j * Q(x + 1j * y) - 1j * Q(x - 1j * y)) / 4.0
    return (Q(x + y) - Q(x - y)) / 4.0


def check_diagonal(Q, B, samples=None, group: GroupSpec | None = None,
                   trials: int = 200, seed: int = 0, tol: float = 1e-9) -> bool:
    """True iff B is symmetric, additive in each slot, and Q(x) = B(x, x) on samples."""
    if group is not None:
        table = np.asarray(Q, dtype=np.int64) % group.q
        rng = np.random.default_rng(seed)
        size = group.size
        if samples is None:
            samples = rng.integers(0, size, size=(trials, 3))
        for x, y, z in np.asarray(samples, dtype=np.int64):
            x, y, z = int(x), int(y), int(z)
            if B(x, y) != B(y, x):
                return False
            if B(group.add(x, z), y) != (B(x, y) + B(z, y)) % group.q:
                return False
            if int(table[x]) != B(x, x):
                return False
        return True
    rng = np.random.default_rng(seed)
    if samples is None:
        d = Q.domain.d if hasattr(Q, "domain") else 1
        samples = [tuple(rng.uniform(-5.0, 5.0, d) for _ in range(3)) for _ in range(trials)]
    for x, y, z in samples:
        x, y, z = np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)
        scale = 1.0 + abs(B(x, y)) + abs(B(y, z)) + abs(Q(x))
        if abs(B(x, y) - B(y, x)) > tol * scale:
            return False
        if abs(B(x + z, y) - (B(x, y) + B(z, y))) > tol * (scale + abs(B(z, y))):
            return False
        if abs(Q(x) - B(x, x)) > tol * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# inner-product-space characterization of real normed spaces


@dataclass
class CharacterizationResult:
    passed: bool
    sup_residual: float
    witness: tuple | None = None
    witness_residual: float | None = None

    def __bool__(self) -> bool:
        return self.passed


def inner_product_characterization(spec: QuasiNormSpec, mode: str, param: int,
                                   trials: int = 10000, seed: int = 0,
                                   tol_factor: float = 1e-9) -> CharacterizationResult:
    """Probe whether the squared norm satisfies the quadratic identity.

    mode "b" uses the two-variable shifted identity with integer a = param
    (|a| != 1); mode "c" uses the n-variable centroid identity with
    n = param >= 3.  Passing on all samples is the numerical signature of an
    inner-product norm; the first violating tuple is returned as a witness.
    """
    if mode == "b":
        eq = EquationSpec("fe3_0", a=int(param))
    elif mode == "c":
        eq = EquationSpec("fe3", n=int(param))
    else:
        raise ValueError("mode must be 'b' or 'c'")
    terms, arity = equation_terms(eq)
    dim = spec.dim

    def residual_and_scale(pts):
        res = 0.0
        scale = 1.0
        stacked = np.stack(pts)
        for coeff, w in terms:
            term = coeff * norm_eval(spec, np.asarray(w) @ stacked) ** 2
            res += term
            scale += abs(term)
        return res, scale

    def prelude():
        eye = np.eye(dim)
        for i in range(dim):
            for j in range(dim):
                if i == j:
                    continue
                pts = [np.zeros(dim) for _ in range(arity)]
                pts[0] = eye[i].copy()
                pts[1] = eye[j].copy()
                yield tuple(pts)

    rng = np.random.default_rng(seed)
    sup = 0.0
    count = 0
    for pts in prelude():
        res, scale = residual_and_scale(pts)
        sup = max(sup, abs(res))
        if abs(res) > tol_factor * scale:
            return CharacterizationResult(False, sup, witness=pts, witness_residual=res)
        count += 1
        if count >= trials:
            break
    while count < trials:
        pts = tuple(rng.uniform(-10.0, 10.0, dim) for _ in range(arity))
        res, scale = residual_and_scale(pts)
        sup = max(sup, abs(res))
        if abs(res) > tol_factor * scale:
            return CharacterizationResult(False, sup, witness=pts, witness_residual=res)
        count += 1
    return CharacterizationResult(True, sup)
