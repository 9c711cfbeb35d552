import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

import quadstab as qs
from quadstab import EquationSpec, GroupSpec


def brute_force_solution_count(terms, arity, q, d=1):
    """Count tables f: (Z/q)^d -> Z/q satisfying every instantiated constraint.

    Exhaustive over all q^(q^d) tables; only usable for q^d <= 5.
    """
    size = q**d
    count = 0
    tuples = list(itertools.product(range(size), repeat=arity))
    group = GroupSpec(q, d)
    dec = group.decode_table()
    for table in itertools.product(range(q), repeat=size):
        ok = True
        for tup in tuples:
            acc = 0
            for coeff, w in terms:
                coords = sum(wl * dec[tup[l]] for l, wl in enumerate(w)) % q
                acc += coeff * table[int(group.encode(coords))]
            if acc % q != 0:
                ok = False
                break
        if ok:
            count += 1
    return count


def neg(g, i):
    return g.encode(-g.decode_table()[np.asarray(i)])


def scale(g, c, i):
    return g.encode(c * g.decode_table()[np.asarray(i)])


def combine(g, tuples, weights):
    """Index of sum_l w_l x_l per tuple, read off the one-hot rows of the raw
    single-term equation f(sum_l w_l x_l) = 0."""
    rows = qs.ConstraintMatrix([(1, tuple(weights))], g).densify(np.asarray(tuples))
    return rows.argmax(axis=1)


def toarray(m):
    return np.vstack([m.densify(b) for b in m.tuple_batches()])


def test_group_validation(monkeypatch):
    with pytest.raises(ValueError):
        GroupSpec(4, 1)
    with pytest.raises(ValueError):
        GroupSpec(3, 1)
    with pytest.raises(ValueError):
        GroupSpec(5, 0)
    assert GroupSpec(5, 2).size == 25
    # a prime over the column cap is refused before its O(sqrt q) primality test
    monkeypatch.setattr("quadstab.finite._is_prime", lambda n: pytest.fail("primality tested"))
    with pytest.raises(ValueError, match="capped at 10000 columns.*10000000000037"):
        GroupSpec(10**13 + 37)


def test_group_index_arithmetic():
    g = GroupSpec(7, 2)
    a = g.encode([3, 5])
    b = g.encode([6, 4])
    assert g.add(a, b) == g.encode([(3 + 6) % 7, (5 + 4) % 7])
    assert g.sub(a, b) == g.encode([(3 - 6) % 7, (5 - 4) % 7])
    assert neg(g, a) == g.encode([(-3) % 7, (-5) % 7])
    assert scale(g, 3, a) == g.encode([2, 1])


def test_constraint_counts():
    m = qs.enumerate_constraints(EquationSpec("fe1"), GroupSpec(5, 1))
    assert m.shape == (25, 5)
    m3 = qs.enumerate_constraints(EquationSpec("fe3", n=3), GroupSpec(5, 1))
    assert m3.shape == (125, 5)


def test_row_coefficient_multiset():
    # rows built from tuples without argument collisions carry exactly the
    # equation's coefficient multiset, and every row sum is the constant
    # coefficient total
    g = GroupSpec(7, 1)
    eq = EquationSpec("fe1")
    m = qs.enumerate_constraints(eq, g)
    dense = toarray(m)
    coeff_sum = sum(c for c, _ in eq.terms()) % 7
    assert np.all(dense.sum(axis=1) % 7 == coeff_sum)
    # tuple (1, 3): arguments 4, -2, 1, 3 are distinct
    row = m.densify(np.array([[1, 3]]))[0]
    assert sorted(row[row != 0].tolist()) == sorted([1, 1, (-2) % 7, (-2) % 7])


def test_group_combine_matches_decode_arithmetic():
    g = GroupSpec(7, 2)
    rng = np.random.default_rng(3)
    tuples = rng.integers(0, g.size, size=(50, 3))
    w = (2, -1, 3)
    got = combine(g, tuples, w)
    dec = g.decode_table()
    for row, idx in zip(tuples, got):
        coords = sum(wl * dec[row[l]] for l, wl in enumerate(w)) % 7
        assert int(idx) == g.encode(coords)


def _streamed_rows(m):
    return sum(batch.shape[0] for batch in m.tuple_batches())


def test_subsample_plan_contract():
    # arity > 3 with |G|^n beyond the cap: patterns, pairs and 10^6 fixed-seed
    # random tuples, deterministic across calls
    g = GroupSpec(11, 2)
    m = qs.enumerate_constraints(EquationSpec("fe3", n=4), g)
    assert m.plan == "subsample"
    assert m.shape == (_streamed_rows(m), g.size)
    first_a = next(iter(m.tuple_batches(chunk=1000)))
    first_b = next(iter(m.tuple_batches(chunk=1000)))
    assert np.array_equal(first_a, first_b)
    # small systems stream the full enumeration
    assert qs.enumerate_constraints(EquationSpec("fe3", n=4), GroupSpec(11, 1)).plan == "full"
    # the planned row count is the streamed row count, other arities too
    for eq, g in [(EquationSpec("fe2"), GroupSpec(7, 3)), (EquationSpec("fe3", n=5), GroupSpec(31, 1))]:
        m = qs.enumerate_constraints(eq, g)
        assert m.plan == "subsample"
        assert m.n_rows == _streamed_rows(m)
    # arity 2 is always exact: the pairs are every tuple
    m = qs.enumerate_constraints(EquationSpec("fe1"), GroupSpec(59, 2))
    assert (m.plan, m.n_rows) == ("full", 59**4)


def test_admissibility():
    # a = 6 collapses to 1 mod 5, which breaks |a| != 1
    with pytest.raises(qs.InadmissibleGroupError):
        qs.enumerate_constraints(EquationSpec("fe3_0", a=6), GroupSpec(5, 1))
    # q = 5 divides an obstruction factor for n = 4 (a = 3)
    with pytest.raises(qs.InadmissibleGroupError) as err:
        qs.enumerate_constraints(EquationSpec("fe3", n=4), GroupSpec(5, 1))
    assert err.value.factor is not None
    # accepted cases
    qs.enumerate_constraints(EquationSpec("fe3_0", a=2), GroupSpec(5, 1))
    qs.enumerate_constraints(EquationSpec("fe3_0", a=0), GroupSpec(5, 1))
    qs.enumerate_constraints(EquationSpec("fe3", n=3), GroupSpec(5, 1))


def test_obstruction_product():
    assert qs.obstruction_product(EquationSpec("fe1")) == 6
    assert qs.obstruction_product(EquationSpec("fe3", n=3)) == 6
    prod = qs.obstruction_product(EquationSpec("fe3", n=4))  # a = 3
    for factor in (2, 3, 2, 4, 5, 7, 30):
        assert prod % factor == 0


def test_nullspace_fe1_f5_dimension_and_brute_force():
    g = GroupSpec(5, 1)
    eq = EquationSpec("fe1")
    basis = qs.nullspace_basis(qs.enumerate_constraints(eq, g))
    assert len(basis) == 1
    # independent oracle: enumerate all 5^5 tables
    count = brute_force_solution_count(eq.terms(), eq.arity, 5)
    assert count == 5 ** len(basis)
    # the square table is a solution and must be in the span
    sq = np.array([(x * x) % 5 for x in range(5)])
    b = basis[0]
    scale = None
    for c in range(1, 5):
        if np.array_equal((c * b) % 5, sq):
            scale = c
    assert scale is not None


def test_nullspace_fe1_f5_rank2():
    g = GroupSpec(5, 2)
    basis = qs.nullspace_basis(qs.enumerate_constraints(EquationSpec("fe1"), g))
    assert len(basis) == 3
    # cross-check membership of x^2, y^2, xy by a literal loop over all pairs
    dec = g.decode_table()
    tables = {
        "x2": np.array([(c[0] * c[0]) % 5 for c in dec]),
        "y2": np.array([(c[1] * c[1]) % 5 for c in dec]),
        "xy": np.array([(c[0] * c[1]) % 5 for c in dec]),
    }
    for name, table in tables.items():
        for xi in range(g.size):
            for yi in range(g.size):
                acc = (table[g.add(xi, yi)] + table[g.sub(xi, yi)]
                       - 2 * table[xi] - 2 * table[yi])
                assert acc % 5 == 0, name
    # and each lies in the span of the computed basis
    span = np.stack([b % 5 for b in basis], axis=1)
    for table in tables.values():
        aug = np.concatenate([span, table[:, None]], axis=1)
        r_span = len(qs.gf_rref(span.T, 5))
        r_aug = len(qs.gf_rref(aug.T, 5))
        assert r_span == r_aug == 3


def test_dense_nullspace_paths():
    # zero matrix: nullspace is everything
    basis = qs.nullspace_basis(np.zeros((4, 6), dtype=np.int64), q=5)
    assert len(basis) == 6
    # random dense systems against exhaustive counting
    rng = np.random.default_rng(0)
    for _ in range(6):
        m = rng.integers(0, 5, size=(3, 5))
        basis = qs.nullspace_basis(m, q=5)
        for b in basis:
            assert np.all((m @ b) % 5 == 0)
        count = 0
        for vec in itertools.product(range(5), repeat=5):
            if np.all((m @ np.array(vec)) % 5 == 0):
                count += 1
        assert count == 5 ** len(basis)


def test_spaces_equal_oracles():
    assert qs.spaces_equal(EquationSpec("fe3", n=3), EquationSpec("fe1"), GroupSpec(5, 1))
    assert qs.spaces_equal(EquationSpec("fe3_0", a=2), EquationSpec("fe1"), GroupSpec(7, 1))
    assert qs.spaces_equal(EquationSpec("fe2"), EquationSpec("fe1"), GroupSpec(7, 1))


def test_spaces_differ_with_certificate():
    # odd cubic scaling law f(2x) = 8 f(x), encoded as raw constraints
    cubic = [(1, (2,)), (-8, (1,))]
    cmp = qs.spaces_equal(EquationSpec("fe1"), cubic, GroupSpec(5, 1))
    assert not cmp
    assert cmp.certificate is not None
    cert = cmp.certificate % 5
    g = GroupSpec(5, 1)
    # the certificate solves the cubic equation ...
    for x in range(5):
        assert (cert[scale(g, 2, x)] - 8 * cert[x]) % 5 == 0
    # ... but violates the quadratic one somewhere
    bad = False
    for x in range(5):
        for y in range(5):
            acc = (cert[g.add(x, y)] + cert[g.sub(x, y)] - 2 * cert[x] - 2 * cert[y]) % 5
            bad = bad or acc != 0
    assert bad
    # the cube table spans the cubic equation's solutions
    cube = np.array([(x**3) % 5 for x in range(5)])
    assert any(np.array_equal((c * cube) % 5, cert) for c in range(1, 5))


def test_fe3_nullspace_members_are_even_and_scale():
    n = 3
    g = GroupSpec(5, 1)
    basis = qs.nullspace_basis(qs.enumerate_constraints(EquationSpec("fe3", n=n), g))
    assert basis
    for f in basis:
        for x in range(g.size):
            assert f[neg(g, x)] % 5 == f[x] % 5
            assert f[scale(g, n - 1, x)] % 5 == ((n - 1) ** 2 * f[x]) % 5


def test_nullspace_members_polarize_to_their_diagonal():
    # every solution table recovers itself as the diagonal of its polarization
    for q, d in ((5, 1), (5, 2), (7, 1)):
        g = GroupSpec(q, d)
        basis = qs.nullspace_basis(qs.enumerate_constraints(EquationSpec("fe1"), g))
        assert basis
        for f in basis:
            B = lambda x, y, f=f: qs.biadditive_from_quadratic(f, x, y, group=g)
            assert qs.check_diagonal(f, B, group=g, trials=200, seed=1)


def test_biadditive_from_quadratic():
    # finite: Q = x^2 over F_5 polarizes to B(x, y) = xy
    g = GroupSpec(5, 1)
    table = np.array([(x * x) % 5 for x in range(5)])
    for x in range(5):
        for y in range(5):
            assert qs.biadditive_from_quadratic(table, x, y, group=g) == (x * y) % 5
    # real scalar case
    f = qs.QuadraticForm([[1.0]])
    assert qs.biadditive_from_quadratic(f, np.array([1.5]), np.array([2.5])) == pytest.approx(3.75)
    # two-variable form x1^2 + 3 x1 x2: B(e1, e2) = 3/2
    f2 = qs.QuadraticForm([[1.0, 1.5], [1.5, 0.0]])
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert qs.biadditive_from_quadratic(f2, e1, e2) == pytest.approx(1.5)


def test_biadditive_complex_four_term():
    # the hermitian square |t|^2 on C polarizes to the hermitian product x conj(y),
    # via the four-term formula with the imaginary-twisted arguments
    f = qs.QuadraticForm([[1.0]], complex_scalars=True)
    rng = np.random.default_rng(11)
    for _ in range(30):
        x = rng.uniform(-3, 3, 1) + 1j * rng.uniform(-3, 3, 1)
        y = rng.uniform(-3, 3, 1) + 1j * rng.uniform(-3, 3, 1)
        got = qs.biadditive_from_quadratic(f, x, y)
        expect = complex(x[0] * np.conj(y[0]))
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-12)
        # conjugate-linear in the second slot
        twisted = qs.biadditive_from_quadratic(f, x, 1j * y)
        assert twisted == pytest.approx(-1j * expect, rel=1e-9, abs=1e-12)
        # diagonal recovers the square
        diag = qs.biadditive_from_quadratic(f, x, x)
        assert diag == pytest.approx(abs(x[0]) ** 2, rel=1e-9)


def test_check_diagonal():
    f2 = qs.QuadraticForm([[1.0, 1.5], [1.5, 0.0]])
    B = lambda x, y: qs.biadditive_from_quadratic(f2, x, y)
    assert qs.check_diagonal(f2, B, trials=100, seed=0)
    quartic = qs.Monomial(4)
    Bq = lambda x, y: qs.biadditive_from_quadratic(quartic, x, y)
    assert not qs.check_diagonal(quartic, Bq, trials=100, seed=0)
    zero = qs.ConstantMap(0.0)
    Bz = lambda x, y: qs.biadditive_from_quadratic(zero, x, y)
    assert qs.check_diagonal(zero, Bz, trials=50, seed=0)
    # finite-field version
    g = GroupSpec(5, 1)
    table = np.array([(2 * x * x) % 5 for x in range(5)])
    Bt = lambda x, y: qs.biadditive_from_quadratic(table, x, y, group=g)
    assert qs.check_diagonal(table, Bt, group=g, trials=100, seed=0)


def test_inner_product_characterization_euclidean():
    res_b = qs.inner_product_characterization(qs.euclidean(2), "b", 2, trials=2000, seed=0)
    assert res_b.passed
    res_c = qs.inner_product_characterization(qs.euclidean(3), "c", 3, trials=2000, seed=0)
    assert res_c.passed
    # weighted l2 is still an inner-product norm
    res_w = qs.inner_product_characterization(qs.weighted([1.0, 3.0]), "b", 2, trials=2000, seed=0)
    assert res_w.passed


def test_inner_product_characterization_l1_witness():
    res = qs.inner_product_characterization(qs.l1(2), "b", 2, trials=2000, seed=0)
    assert not res.passed
    x, y = res.witness[0], res.witness[1]
    assert np.allclose(x, [1.0, 0.0])
    assert np.allclose(y, [0.0, 1.0])
    # |2e1+e2|^2 + |e1+2e2|^2 + |e1-e2|^2 - 3|e1+e2|^2 - 3(1+1) = 9+9+4-12-6
    assert res.witness_residual == pytest.approx(4.0, abs=1e-12)


def _reference_characterization(spec, mode, param, trials, seed):
    """The characterization one tuple at a time: per-point norms and a running max."""
    eq = EquationSpec("fe3_0", a=param) if mode == "b" else EquationSpec("fe3", n=param)
    terms, arity = qs.equation_terms(eq)
    dim = spec.dim

    def residual_and_scale(pts):
        res, scale = 0.0, 1.0
        stacked = np.stack(pts)
        for coeff, w in terms:
            term = coeff * qs.norm_eval(spec, np.asarray(w) @ stacked) ** 2
            res += term
            scale += abs(term)
        return res, scale

    def prelude():
        eye = np.eye(dim)
        for i, j in itertools.permutations(range(dim), 2):
            pts = [np.zeros(dim) for _ in range(arity)]
            pts[0], pts[1] = eye[i].copy(), eye[j].copy()
            yield tuple(pts), True

    def random_tuples():
        rng = np.random.default_rng(seed)
        while True:
            yield tuple(rng.uniform(-10.0, 10.0, dim) for _ in range(arity)), False

    sup = 0.0
    for pts, in_prelude in itertools.islice(itertools.chain(prelude(), random_tuples()), trials):
        res, scale = residual_and_scale(pts)
        sup = max(sup, abs(res))
        if abs(res) > qs.finite._IDENTITY_RTOL * scale:
            return qs.CharacterizationResult(False, sup, witness=pts, witness_residual=res), in_prelude
    return qs.CharacterizationResult(True, sup), None


_CHARACTERIZED_NORMS = {
    "euclidean": lambda: qs.euclidean(3),
    "weighted": lambda: qs.weighted([1.0, 3.0]),
    "l1": lambda: qs.l1(2),
    "lp_quasi": lambda: qs.lp_quasi(0.6, 3),
}


def _assert_same_characterization(spec, mode, param, trials, seed):
    got = qs.inner_product_characterization(spec, mode, param, trials=trials, seed=seed)
    want, in_prelude = _reference_characterization(spec, mode, param, trials, seed)
    assert got.passed == want.passed
    assert got.sup_residual == want.sup_residual
    assert got.witness_residual == want.witness_residual
    if want.witness is None:
        assert got.witness is None
    else:
        assert np.stack(got.witness).tobytes() == np.stack(want.witness).tobytes()
    return in_prelude


@pytest.mark.parametrize("mode, params", [("b", (0, 2, 3, -2)), ("c", (3, 5))])
@pytest.mark.parametrize("kind", sorted(_CHARACTERIZED_NORMS))
def test_characterization_matches_per_tuple_reference(kind, mode, params):
    spec = _CHARACTERIZED_NORMS[kind]()
    for param in params:
        for trials, seed in ((1, 0), (5, 1), (400, 2)):  # 1 < prelude length
            in_prelude = _assert_same_characterization(spec, mode, param, trials, seed)
            assert in_prelude is (None if kind in ("euclidean", "weighted") else True)


@pytest.mark.parametrize("kind, mode, param, rtol", [("l1", "c", 5, 0.107),
                                                     ("lp_quasi", "b", -2, 0.2)])
def test_characterization_witness_in_the_random_part(kind, mode, param, rtol, monkeypatch):
    # the (e_i, e_j) prelude is the worst case at the default tolerance; a tolerance
    # just above its relative residual lets it pass and leaves a random witness
    monkeypatch.setattr("quadstab.finite._IDENTITY_RTOL", rtol)
    assert _assert_same_characterization(_CHARACTERIZED_NORMS[kind](), mode, param,
                                         trials=2000, seed=3) is False


def test_inner_product_characterization_validation():
    with pytest.raises(ValueError):
        qs.inner_product_characterization(qs.euclidean(2), "b", 1, trials=10)
    with pytest.raises(ValueError):
        qs.inner_product_characterization(qs.euclidean(2), "z", 2, trials=10)


def test_constraints_hold():
    g = GroupSpec(5, 1)
    m = qs.enumerate_constraints(EquationSpec("fe1"), g)
    sq = np.array([(x * x) % 5 for x in range(5)])
    cube = np.array([(x**3) % 5 for x in range(5)])
    ok = qs.constraints_hold(m, [sq, cube])
    assert ok.tolist() == [True, False]
    # the reduced coefficients of these 23 terms f(kx) sum to 22q, so at the
    # constant table q-1 every residual sum is 22q(q-1), past int32 range, and
    # vanishes mod q
    q = 9973
    m = qs.ConstraintMatrix([(-1, (k,)) for k in range(1, 23)] + [(22, (23,))], GroupSpec(q))
    assert qs.constraints_hold(m, [np.full(q, q - 1)]).tolist() == [True]


def test_columns_cap(monkeypatch):
    # dense elimination is capped at 10^4 columns
    g = GroupSpec(101, 2)  # 10201 columns
    with pytest.raises(ValueError, match="capped"):
        qs.nullspace_basis(qs.enumerate_constraints(EquationSpec("fe1"), g))
    # the cap is checked when the system is built, before any tuple exists
    def no_tuples(*args):
        raise AssertionError("substitution tuples built for an over-cap group")
    monkeypatch.setattr("quadstab.finite.structured_tuples", no_tuples)
    with pytest.raises(ValueError, match="capped"):
        qs.ConstraintMatrix(EquationSpec("fe3", n=4), g)


# ---------------------------------------------------------------------------
# bounded verification and column-restricted elimination

FE1_F23_2_BASIS_SHA256 = "05d6d0a4b1ef1f1a1cbf980440c279105e3f16686f090092fa93b099444da751"


def _basis_sha256(basis):
    return hashlib.sha256(np.stack(basis, axis=1).astype(np.int64).tobytes()).hexdigest()


def _record_checks(monkeypatch):
    """Wrap the residual check; the returned list gets (rows, candidates) per call."""
    sizes = []
    inner = qs.finite._residual_nonzero

    def recorded(M, tuples, candidates):
        sizes.append((tuples.shape[0], candidates.shape[1]))
        return inner(M, tuples, candidates)

    monkeypatch.setattr("quadstab.finite._residual_nonzero", recorded)
    return sizes


def test_residual_checks_stay_within_the_budget(monkeypatch):
    budget = qs.finite._CHECK_BUDGET
    sizes = _record_checks(monkeypatch)
    m = qs.enumerate_constraints(EquationSpec("fe1"), GroupSpec(23, 2))
    basis = qs.nullspace_basis(m)
    assert sizes and max(r * c for r, c in sizes) <= budget
    # each row is streamed once: the pairs block is not enumerated a second time
    assert sum(r for r, _ in sizes) < 1.5 * m.n_rows
    assert _basis_sha256(basis) == FE1_F23_2_BASIS_SHA256
    # many candidates: combinations of the basis hold, random tables do not
    rng = np.random.default_rng(3)
    null = np.stack(basis, axis=1)
    held = [(null @ rng.integers(0, 23, null.shape[1])) % 23 for _ in range(40)]
    broken = [rng.integers(0, 23, null.shape[0]) for _ in range(4)]
    sizes.clear()
    ok = qs.constraints_hold(m, held + broken)
    assert ok.tolist() == [True] * 40 + [False] * 4
    assert sizes and max(r * c for r, c in sizes) <= budget


def test_nullspace_memory_does_not_grow_with_candidates():
    m = qs.enumerate_constraints(EquationSpec("fe1"), GroupSpec(23, 2))
    tracemalloc.start()
    try:
        qs.nullspace_basis(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_first_batch_memory_is_bounded_by_the_chunk():
    # the pairs are decoded chunk by chunk: the first batch of fe2 over F_11^3
    # does not build all 1331^2 pairs (about 108 MiB as one int64 block)
    m = qs.enumerate_constraints(EquationSpec("fe2"), GroupSpec(11, 3))
    tracemalloc.start()
    try:
        next(m.tuple_batches())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_stream_stops_at_an_empty_nullspace():
    # f(x) = 0 in the first of three slots: the first batch already pins f = 0,
    # and none of the other 4.8M tuples over F_13^2 is drawn
    m = qs.ConstraintMatrix([(1, (1, 0, 0))], GroupSpec(13, 2))
    first = next(m.tuple_batches()).shape[0]
    drawn = []
    batches = m.tuple_batches

    def counted():
        for batch in batches():
            drawn.append(batch.shape[0])
            yield batch

    m.tuple_batches = counted
    assert qs.nullspace_basis(m) == []
    assert sum(drawn) <= first


def _reference_rref(mat, q):
    """Gauss-Jordan over GF(q) that updates whole rows; returns the nonzero rows."""
    A = np.array(mat, dtype=np.int64) % q
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        nz = [i for i in range(r, rows) if A[i, c]]
        if not nz:
            continue
        A[[r, nz[0]]] = A[[nz[0], r]]
        A[r] = (A[r] * pow(int(A[r, c]), -1, q)) % q
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % q
        r += 1
        if r == rows:
            break
    return A[:r]


@pytest.mark.parametrize("q", [5, 23, 31])
def test_gf_rref_matches_whole_row_reference(q):
    rng = np.random.default_rng(q)
    cases = [np.zeros((4, 7), dtype=np.int64)]
    for rows, cols, rank in [(6, 9, 6), (9, 6, 6), (12, 8, 3), (5, 5, 2), (20, 11, 7), (3, 14, 1)]:
        # a product of rank-deficient factors, then a few all-zero columns
        m = (rng.integers(0, q, (rows, rank)) @ rng.integers(0, q, (rank, cols))) % q
        m[:, rng.choice(cols, size=2, replace=False)] = 0
        cases.append(m)
    for m in cases:
        got = qs.finite.gf_rref(m, q)
        want = _reference_rref(m, q)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
