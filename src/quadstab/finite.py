"""Exact solution spaces of the equation family over finite vector groups.

Each equation instantiates pointwise over the group (Z/q)^d as exact linear
constraints on function tables F: (Z/q)^d -> Z/q, one row per argument
tuple.  Nullspaces come from GF(q) Gaussian elimination.  Rows come from one
stream, `ConstraintMatrix.tuple_batches`: substitution patterns, then tuple
indices decoded chunk by chunk.  A basis is built from its first rows and
every later row is verified against the candidate nullspace, since over a
field a row annihilates null(B) exactly when it lies in rowspace(B).
Violating rows are folded into the basis, so the result equals full
elimination of the stream, which stops once the nullspace is empty.
A check after a violation takes at most one merge of rows, and one after a
clean check up to 2^22 row x candidate entries, so the oracle's peak memory
does not grow with the candidate count.  Rows are checked and
densified by one table kernel: a term's column is read from per-system
lookup tables, and each check reduces mod q once.
Each equation's constraints are streamed once; two solution spaces are
compared through the row basis each stream already holds: a table solves
the other side's system iff that side's row basis annihilates it.  Groups over the
dense-elimination column cap are refused when the group is built, by `GroupSpec`.
Admissibility reads the equation's shift a from one place, `_shift`, and
the factors where constant or additive maps solve it from its terms.

The codomain is Z/q itself: maps into characteristic-zero groups are
killed by torsion, which would make the oracle vacuous.

This module also hosts the inner-product-space characterization of real
normed spaces, which shares the equation term lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# norm_eval is no longer called here; it stays importable from this namespace
# because bench/spans.py wraps it here by name
from .algebra import QuasiNormSpec, _magnitudes, _norms, _scalar_pow, norm_eval  # noqa: F401
from .equations import EquationSpec, block_length, equation_terms, term_arguments, term_arrays, term_sum

MAX_COLUMNS = 10**4
FULL_STREAM_CAP = 8_000_000
SAMPLE_TUPLES = 10**6
SAMPLE_SEED = 74025
_CHUNK = 200_000
_CHECK_BUDGET = 1 << 22  # row x candidate entries per residual check
_IDENTITY_RTOL = 1e-9  # squared-norm identity residual allowed, relative to its term sizes


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
        if self.d < 1:
            raise ValueError("d must be >= 1")
        # 2^bit_length exceeds the cap, so for q >= 2 this decides q^d > cap without forming
        # q^d; it runs before the O(sqrt q) primality test and before any table is built
        if self.q ** min(self.d, MAX_COLUMNS.bit_length()) > MAX_COLUMNS:
            raise ValueError(f"dense elimination capped at {MAX_COLUMNS} columns, "
                             f"group has q^d = {self.q}^{self.d}")
        if not _is_prime(self.q) or self.q < 5:
            raise ValueError("q must be a prime >= 5")

    @property
    def size(self) -> int:
        return self.q**self.d

    def decode_table(self) -> np.ndarray:
        return _decode_table(self.q, self.d)

    def encode(self, coords) -> np.ndarray:
        """Index of each coordinate vector on the last axis, base-q little endian."""
        return (np.asarray(coords, dtype=np.int64) % self.q) @ _powers(self.q, self.d)

    def add(self, i, j):
        return self.encode(self.decode_table()[np.asarray(i)] + self.decode_table()[np.asarray(j)])

    def sub(self, i, j):
        return self.encode(self.decode_table()[np.asarray(i)] - self.decode_table()[np.asarray(j)])


@lru_cache(maxsize=None)
def _decode_table(q: int, d: int):
    coords = _digits(0, q**d, q, d, np.int32)
    coords.setflags(write=False)
    return coords


def _digits(start: int, stop: int, base: int, width: int, dtype=np.int64) -> np.ndarray:
    """Row r holds the base-`base` digits of start + r, least significant in slot 0.
    Slots are peeled one at a time by repeated division, so no power of `base`
    is formed and wide tuples cannot overflow int64."""
    rest = np.arange(start, stop, dtype=np.int64)
    out = np.empty((rest.shape[0], width), dtype=dtype)
    for slot in range(width):
        rest, out[:, slot] = np.divmod(rest, base)
    return out


@lru_cache(maxsize=None)
def _powers(q: int, d: int):
    p = q ** np.arange(d, dtype=np.int64)
    p.setflags(write=False)
    return p


# ---------------------------------------------------------------------------
# admissibility


def _shift(eq: EquationSpec) -> int:
    """The shift a of the equation's derivation: 2 for fe1 and fe2, n-1 for fe3, a for fe3_0."""
    return 2 if eq.id in ("fe1", "fe2") else int(eq.n) - 1 if eq.id == "fe3" else int(eq.a)


def obstruction_factors(eq: EquationSpec) -> list[tuple[str, int]]:
    """The listed factors of the derivation's shift a that q must not divide."""
    a = abs(_shift(eq))
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


def _derived_factors(eq: EquationSpec) -> list[tuple[str, int]]:
    """Factors read off the terms: constant maps solve the equation over Z/q iff
    q | sum_t c_t, and additive maps iff q divides every entry of sum_t c_t w_t."""
    coeffs, weights = term_arrays(eq)
    return [("sum c", int(coeffs.sum())), ("gcd sum c w", int(np.gcd.reduce(coeffs @ weights)))]


def check_admissible(eq, G: GroupSpec) -> None:
    """Reject (q, equation) pairs whose derivation is characteristic-sensitive,
    or over which constant or additive maps solve the equation but not fe1."""
    if not isinstance(eq, EquationSpec):
        return  # raw term lists carry no equivalence claim

    def refuse_divided(factors):
        for name, factor in factors:
            if factor % G.q == 0:
                raise InadmissibleGroupError(
                    f"q={G.q} divides obstruction factor {name}={factor} for {eq.label()}",
                    factor_name=name,
                    factor=factor,
                )

    refuse_divided(obstruction_factors(eq))
    a = _shift(eq)  # 2 for fe1 and fe2, which no prime q >= 5 reduces to 0 or +-1
    r = a % G.q
    residue = "+-1" if r in (1, G.q - 1) and abs(a) != 1 else "0" if r == 0 and a != 0 else None
    if residue is not None:
        raise InadmissibleGroupError(f"a={a} reduces to {residue} mod q={G.q} for {eq.label()}",
                                     factor_name="a mod q", factor=a)
    refuse_divided(_derived_factors(eq))


# ---------------------------------------------------------------------------
# constraint matrices


class ConstraintMatrix:
    """Pointwise instantiation of an equation over a group, one row per tuple.

    Rows are streamed rather than materialized: `tuple_batches` yields the
    patterns and pairs, then the rest of the full enumeration or, when that
    is too large, a fixed-seed subsample; `densify` turns a batch of tuples
    into dense GF(q) rows.
    """

    def __init__(self, eq, group: GroupSpec):
        q = group.q
        terms, self.arity = equation_terms(eq)
        # reduced once, coefficients into [0, q) and weights into (-q/2, q/2), for any
        # integer parameters: a term's exact argument is then at most arity (q-1) q/2 and
        # a row's exact residual len(terms) (q-1)^2 in size; int32 holds both unless
        # `wide`, and with them the residual check's sums of len(terms) entries below q
        self.terms = tuple((c % q, tuple((w + q // 2) % q - q // 2 for w in ws)) for c, ws in terms)
        wide = max(self.arity * (q // 2), len(terms) * (q - 1)) * (q - 1) >= 2**31
        self.dtype = np.int64 if wide else np.int32
        self.group = group
        size = group.size
        total = size**self.arity
        # both plans stream every tuple index below size^2 (the pairs)
        if total - size * size <= FULL_STREAM_CAP:
            self.plan = "full"
            self.n_rows = total
        else:
            self.plan = "subsample"
            # the patterns (arity >= 3 here), the pairs and the sample, without building them
            self.n_rows = 1 + (self.arity + 2) * (size - 1) + size * size + SAMPLE_TUPLES

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.group.size)

    def tuple_batches(self):
        """The one row stream, in chunks of _CHUNK tuples: the patterns leading the first
        chunk of pairs (tuple indices below size^2, decoded into digits), then the indices
        from size^2 on in the full plan, or a fixed-seed sample in the subsample plan."""
        size = self.group.size
        patterns = structured_tuples(self.group, self.arity)
        end = size**self.arity if self.plan == "full" else size * size
        for lo, hi in ((0, min(size * size, end)), (size * size, end)):
            for start in range(lo, hi, _CHUNK):
                batch = _digits(start, min(start + _CHUNK, hi), size, self.arity)
                yield np.concatenate([patterns, batch]) if start == 0 else batch
        if self.plan == "subsample":
            rng = np.random.default_rng(SAMPLE_SEED)
            for start in range(0, SAMPLE_TUPLES, _CHUNK):
                take = min(_CHUNK, SAMPLE_TUPLES - start)
                yield rng.integers(0, size, size=(take, self.arity), dtype=np.int64)

    @cached_property
    def _tables(self):
        """The row kernel's tables, built on the first check rather than with the
        system, since a query may build systems it never checks:

          digits  (d, size): the coordinates of every group element;
          place   (d, 2 arity (q-1) + 1): P_j[s] = (s mod q) q^j;
          scaled  w -> the length-q table of w x mod q, for each weight w not 0, +-1;
          groups  coefficient -> its terms' nonzero (slot, weight) pairs, -1 weights
                  last so that only an all -1 term negates; coefficient 0 is dropped.

        A coordinate sum s adds x for a weight +1, subtracts it for -1 and adds
        (w x mod q) otherwise, so |s| <= arity (q-1): P_j holds s >= 0 at its
        front and s < 0 at its back, where numpy reads a negative index.
        """
        q = self.group.q
        digits = np.ascontiguousarray(self.group.decode_table().T, dtype=np.intp)
        reach = self.arity * (q - 1)
        sums = np.concatenate([np.arange(reach + 1), np.arange(-reach, 0)]) % q
        place = _powers(q, self.group.d)[:, None].astype(np.intp) * sums
        scaled = {w: (w * np.arange(q, dtype=np.intp)) % q
                  for _, ws in self.terms for w in ws if w not in (0, 1, -1)}
        groups = {}
        for coeff, ws in self.terms:
            if coeff:
                slots = sorted(((l, w) for l, w in enumerate(ws) if w), key=lambda lw: lw[1] == -1)
                groups.setdefault(coeff, []).append(slots)
        return digits, place, scaled, groups

    def _coords(self, tuples: np.ndarray) -> np.ndarray:
        """Digits of each tuple's arguments, laid out (d, arity, rows)."""
        digits, *_ = self._tables
        return np.take(digits, tuples.T, axis=1)

    def _columns(self, coords: np.ndarray, slots) -> np.ndarray:
        """Column index of the argument sum_l w_l x_l for each row of coords."""
        _, place, scaled, _ = self._tables
        s = None
        for l, w in slots:
            x = coords[:, l] if w in (1, -1) else scaled[w][coords[:, l]]
            s = (-x if w == -1 else x) if s is None else s - x if w == -1 else s + x
        if s is None:
            return np.zeros(coords.shape[2], dtype=np.intp)
        col = place[0][s[0]]
        for j in range(1, s.shape[0]):
            col += place[j][s[j]]
        return col

    def densify(self, tuples: np.ndarray) -> np.ndarray:
        """Dense GF(q) rows of a batch of tuples; a term adds its coefficient once per
        row, so `rows[ar, col] += coeff` never meets a repeated (row, column) pair."""
        coords = self._coords(tuples)
        rows = np.zeros((tuples.shape[0], self.group.size), dtype=np.int64)
        ar = np.arange(tuples.shape[0])
        *_, groups = self._tables
        for coeff, group in groups.items():
            for slots in group:
                rows[ar, self._columns(coords, slots)] += coeff
        return rows % self.group.q


def structured_tuples(group: GroupSpec, arity: int) -> np.ndarray:
    """Substitution patterns that lead the row stream: zero, one-hot in every
    slot and, for arity >= 2, (x, ..., x) and (x, ..., x, 0)."""
    size = group.size
    blocks = [np.zeros((1, arity), dtype=np.int64)]
    xs = np.arange(1, size, dtype=np.int64)
    for slot in range(arity):
        block = np.zeros((size - 1, arity), dtype=np.int64)
        block[:, slot] = xs
        blocks.append(block)
    if arity >= 2:
        rep = np.tile(xs[:, None], (1, arity))
        rep0 = rep.copy()
        rep0[:, -1] = 0
        blocks += [rep, rep0]
    return np.vstack(blocks)


def enumerate_constraints(eq, G: GroupSpec) -> ConstraintMatrix:
    """Instantiate an equation over the group, after the admissibility gate."""
    check_admissible(eq, G)
    return ConstraintMatrix(eq, G)


# ---------------------------------------------------------------------------
# exact GF(q) linear algebra


def gf_rref(mat: np.ndarray, q: int) -> np.ndarray:
    """Reduced row-echelon form over GF(q); returns the nonzero rows.

    One Gauss-Jordan pass: the pivot row of column c is zero left of c, so
    scaling it and clearing column c in every other row touch only columns c:.
    """
    A = np.array(mat, dtype=np.int64) % q
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            A[[r, p]] = A[[p, r]]
        A[r, c:] = (A[r, c:] * pow(int(A[r, c]), -1, q)) % q
        other = np.nonzero(A[:, c])[0]
        other = other[other != r]
        if other.size:
            A[other, c:] = (A[other, c:] - np.outer(A[other, c], A[r, c:])) % q
        r += 1
    return A[:r]


def _pivot_columns(R: np.ndarray) -> np.ndarray:
    if R.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return np.argmax(R != 0, axis=1)


def gf_nullspace(R: np.ndarray, q: int, cols: int) -> np.ndarray:
    """Nullspace basis (as columns) of a matrix already in reduced echelon form."""
    pivots = _pivot_columns(R)
    free = np.setdiff1d(np.arange(cols), pivots)
    N = np.zeros((cols, free.shape[0]), dtype=np.int64)
    N[free, np.arange(free.shape[0])] = 1
    N[pivots] = -R[:, free] % q
    return N


def _check_rows(candidates: int) -> int:
    """Rows per residual check, so that rows x candidates <= _CHECK_BUDGET."""
    return max(1, _CHECK_BUDGET // candidates)


def _residual_nonzero(M: ConstraintMatrix, tuples: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Boolean matrix: does the row for tuple b fail to annihilate candidate column j?

    Each coefficient group gathers its terms' entries from (coeff * candidates)
    mod q, so every summand lies in [0, q) and one reduction ends the check.
    Callers pass at most _check_rows(candidates) tuples, which bounds the
    accumulator and its temporaries.
    """
    q = M.group.q
    cand = candidates.astype(M.dtype, copy=False)
    coords = M._coords(tuples)
    *_, groups = M._tables
    acc = None
    for coeff, group in groups.items():
        table = (cand * coeff) % q
        for slots in group:
            part = np.take(table, M._columns(coords, slots), axis=0)
            acc = part if acc is None else np.add(acc, part, out=acc)
    if acc is None:
        return np.zeros((tuples.shape[0], cand.shape[1]), dtype=bool)
    acc %= M.dtype(q)
    return acc != 0


def _stream_nullspace(M: ConstraintMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The streamed system's RREF row basis R and its exact nullspace (as columns) null(R).

    Works because over a field a row annihilates null(B) iff it lies in
    rowspace(B): verified rows are provably redundant, violating rows are
    folded into the basis in merges of at most merge_cap rows.  A head that
    follows the boot rows or a violating check holds at most merge_cap rows,
    since one merge takes no more; a head that follows a clean check holds
    _check_rows(candidates).  Violating rows beyond one merge go back to the
    front of the pending rows.
    A dropped row annihilated a nullspace that only shrinks afterwards, so the
    final row space is that of the whole stream, and its unique RREF makes the
    basis independent of merge order.
    """
    size, q = M.group.size, M.group.q
    stream = M.tuple_batches()
    boot = next(stream)
    first = min(boot.shape[0], max(2 * size, 512))
    basis = gf_rref(M.densify(boot[:first]), q)
    null = gf_nullspace(basis, q, size)
    merge_cap = max(4 * size, 512)
    clean = False
    for pending in itertools.chain([boot[first:]], stream):
        while pending.shape[0] and null.shape[1]:
            rows = _check_rows(null.shape[1])
            head = pending[:rows if clean else min(rows, merge_cap)]
            pending = pending[head.shape[0]:]
            nonzero = _residual_nonzero(M, head, null)
            clean = not nonzero.any()  # a whole-array test costs far less than one per row
            if clean:
                continue
            bad = head[nonzero.any(axis=1)]
            basis = gf_rref(np.vstack([basis, M.densify(bad[:merge_cap])]), q)
            null = gf_nullspace(basis, q, size)
            if bad.shape[0] > merge_cap:
                pending = np.concatenate([bad[merge_cap:], pending])
        if not null.shape[1]:
            break  # an empty nullspace stays empty: draw no more rows
    return basis, null


def nullspace_basis(M: ConstraintMatrix) -> list[np.ndarray]:
    """Basis of {f : Mf = 0}; dimension = columns - rank.  For a dense matrix
    A, `gf_nullspace(gf_rref(A, q), q, cols)` gives the basis as columns."""
    _, null = _stream_nullspace(M)
    return [null[:, j].copy() for j in range(null.shape[1])]


def constraints_hold(M: ConstraintMatrix, vectors) -> np.ndarray:
    """For each function vector, does it satisfy every streamed constraint of M?
    Each vector holds one entry per group element."""
    vectors = [np.asarray(v, dtype=np.int64) for v in vectors]
    for i, v in enumerate(vectors):
        if v.shape != (M.group.size,):
            raise ValueError(f"vector {i} has shape {v.shape}, the group needs ({M.group.size},)")
    if not vectors:
        return np.zeros(0, dtype=bool)
    cand = np.stack(vectors, axis=1) % M.group.q
    ok = np.ones(cand.shape[1], dtype=bool)
    for batch in M.tuple_batches():
        while batch.shape[0]:
            live = np.nonzero(ok)[0]
            if live.size == 0:
                return ok
            head = batch[:_check_rows(live.size)]
            batch = batch[head.shape[0]:]
            ok[live[_residual_nonzero(M, head, cand[:, live]).any(axis=0)]] = False
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

    Both nullspaces are exact for their streamed systems, and over a field the
    span of one side's nullspace is exactly null(R) of its row basis R.  So a
    basis column v of one side lies outside the other side's span iff
    R_other v != 0 mod q; the first such column is the certificate, a function
    table solving one equation but not the other.  Entries are below q <= 10^4
    and rows at most 10^4 long, so R v stays below 2^63.
    """
    MA = enumerate_constraints(eqA, G)
    MB = enumerate_constraints(eqB, G)
    RB, NB = _stream_nullspace(MB)
    RA, NA = _stream_nullspace(MA)
    dims = (NA.shape[1], NB.shape[1])
    for side, R, V in (("right-only", RA, NB), ("left-only", RB, NA)):
        outside = np.flatnonzero(((R @ V) % G.q).any(axis=0))
        if outside.size:
            return SpaceComparison(False, *dims, certificate=V[:, outside[0]].copy(), side=side)
    return SpaceComparison(True, *dims)


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


def check_diagonal(Q, B, group: GroupSpec | None = None,
                   trials: int = 200, seed: int = 0, tol: float = 1e-9) -> bool:
    """True iff B is symmetric, additive in each slot, and Q(x) = B(x, x) on `trials` drawn triples."""
    rng = np.random.default_rng(seed)
    if group is not None:
        table = np.asarray(Q, dtype=np.int64) % group.q
        for x, y, z in rng.integers(0, group.size, size=(trials, 3)):
            x, y, z = int(x), int(y), int(z)
            if B(x, y) != B(y, x):
                return False
            if B(group.add(x, z), y) != (B(x, y) + B(z, y)) % group.q:
                return False
            if int(table[x]) != B(x, x):
                return False
        return True
    d = Q.domain.d if hasattr(Q, "domain") else 1
    for _ in range(trials):
        x, y, z = (rng.uniform(-5.0, 5.0, d) for _ in range(3))
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
                                   trials: int = 10000, seed: int = 0) -> CharacterizationResult:
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
    coeffs, weights = term_arrays(eq)
    arity, dim = weights.shape[1], spec.dim
    prelude = [(i, j) for i in range(dim) for j in range(dim) if i != j][:trials]
    rng = np.random.default_rng(seed)
    step = block_length(len(coeffs) * dim)
    sup = 0.0
    for start in range(0, trials, step):
        stop = min(trials, start + step)
        P = np.zeros((stop - start, arity, dim))
        for t, (i, j) in enumerate(prelude[start:stop]):
            P[t, 0, i] = P[t, 1, j] = 1.0
        drawn = max(start, len(prelude))
        if drawn < stop:
            P[drawn - start:] = rng.uniform(-10.0, 10.0, (stop - drawn, arity, dim))
        norms = _norms(spec, _magnitudes(term_arguments(weights, P), matrix=False))
        terms = coeffs * _scalar_pow(norms, 2)
        # res starts at 0.0 and scale at 1.0, and both add the terms in order
        res = term_sum(np.concatenate([np.zeros((len(P), 1)), terms], axis=1))
        scale = term_sum(np.concatenate([np.ones((len(P), 1)), np.abs(terms)], axis=1))
        # a residual that is not finite is a violation, also inf against an inf scale
        hits = np.flatnonzero((np.abs(res) > _IDENTITY_RTOL * scale) | ~np.isfinite(res))
        seen = np.abs(res[:hits[0] + 1] if hits.size else res)
        sup = float(np.max(seen, initial=sup))  # np.max keeps a NaN, where fmax drops it
        if hits.size:
            return CharacterizationResult(False, sup, witness=tuple(P[hits[0]].copy()),
                                          witness_residual=float(res[hits[0]]))
    return CharacterizationResult(True, sup)
