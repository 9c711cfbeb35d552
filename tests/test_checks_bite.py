"""Mutant table: each check below must fail when its mutant is in the library.

A mutant is a small, plausible defect, applied with monkeypatch for one test.
Each is paired with the cheap existing check that must catch it; the check
passes unmutated elsewhere in the suite, so here it only has to fail.  A
mutant that survives is a finding that needs a new check, not a reason to
drop the mutant.
"""

import copy
import types

import numpy as np
import pytest

import quadstab as qs
import test_finite as finite_checks
import test_harness as harness_checks
import test_mappings as mapping_checks
import test_stability as stability_checks


def closed_form_doubled(monkeypatch):
    # stability._bounds returns twice the closed form (series stay as they are)
    bounds = qs.stability._bounds

    def doubled(phi, n, X, direction, K, p, series_tol):
        out = bounds(phi, n, X, direction, K, p, series_tol)
        return 2.0 * out if series_tol is None else out

    monkeypatch.setattr(qs.stability, "_bounds", doubled)


def stream_first_chunk_only(monkeypatch):
    # _stream_nullspace verifies its first chunk and drops the rest of the stream:
    # its `itertools.chain([boot[first:]], stream)` reads as `chain([boot[first:]], [])`
    monkeypatch.setattr(qs.finite, "itertools", types.SimpleNamespace(chain=lambda head, rest: iter(head)))


def iterate_off_by_one(monkeypatch):
    # hyers_iterate returns iterate m + 1 when asked for iterate m
    iterate = qs.stability.hyers_iterate

    def shifted(f, n, m, x, direction="forward"):
        return iterate(f, n, m + 1, x, direction)

    for namespace in (qs, qs.stability):
        monkeypatch.setattr(namespace, "hyers_iterate", shifted)


def conjugate_by_u(monkeypatch):
    # conjugate_block multiplies by u where u* belongs: u x u instead of u x u*
    def by_u(U, V):
        moved = qs.algebra.multiply_block(U, V)
        return moved * qs.algebra._lead(U, V.ndim) if U.ndim == 1 else moved @ U

    monkeypatch.setattr(qs.stability, "conjugate_block", by_u)


def phi_cap_without_its_2_over_n(monkeypatch):
    # phi_cap returns phi(x) where the paper's Phi is (1 + 2/n) phi(x)
    def bare(phi, n, x):
        return phi.evaluate([x])

    for namespace in (qs, qs.stability):
        monkeypatch.setattr(namespace, "phi_cap", bare)


def unitaries_from_the_point_generator(monkeypatch):
    # _residual_blocks draws each block's unitaries from the generator of its points
    draw_points, draw_unitaries, seen = qs.mappings._draw_points, qs.mappings._draw_unitaries, []

    def points(rng, *args):
        seen.append(rng)
        return draw_points(rng, *args)

    monkeypatch.setattr(qs.mappings, "_draw_points", points)
    monkeypatch.setattr(qs.mappings, "_draw_unitaries", lambda rng, domain, count:
                        draw_unitaries(seen[-1], domain, count))


def unitaries_reseeded_per_block(monkeypatch):
    # every block draws its unitaries from a fresh copy of the seeded unitary stream
    draw_unitaries = qs.mappings._draw_unitaries
    monkeypatch.setattr(qs.mappings, "_draw_unitaries", lambda rng, domain, count:
                        draw_unitaries(copy.deepcopy(rng), domain, count))


def ginibre_parts_swapped(monkeypatch):
    # the Ginibre matrices take their real parts from the imaginary-part normals and back
    ginibre = qs.algebra._ginibre_from_normals

    def swapped(z):
        return ginibre(z[..., ::-1, :, :])

    for namespace in (qs.algebra, qs.mappings):
        monkeypatch.setattr(namespace, "_ginibre_from_normals", swapped)


def covariance_unitaries_from_the_seed(monkeypatch):
    # verify_unitary_covariance draws its unitaries from default_rng(seed), the generator
    # whose words its fitted constant budget reads as tuple points
    fit, draw_unitaries, streams = qs.stability.fit_constant_level, qs.stability._draw_unitaries, []

    def fit_and_seed(f, n, seed=0, **kw):
        streams.append(np.random.default_rng(seed))
        return fit(f, n, seed=seed, **kw)

    monkeypatch.setattr(qs.stability, "fit_constant_level", fit_and_seed)
    monkeypatch.setattr(qs.stability, "_draw_unitaries", lambda rng, domain, count:
                        draw_unitaries(streams[-1], domain, count))


def admissibility_without_derived_factors(monkeypatch):
    # check_admissible keeps its listed factors but no longer reads sum c_t and
    # sum c_t w_t off the terms, so fe3:6 over F_7 is admitted again
    monkeypatch.setattr(qs.finite, "_derived_factors", lambda eq: [])


def primality_by_floor_division(monkeypatch):
    # _is_prime tests n // i == 0 where n % i == 0 belongs, so no trial divisor
    # ever divides and every n >= 2 reads as prime
    def is_prime(n):
        if n < 2:
            return False
        i = 2
        while i * i <= n:
            if n // i == 0:
                return False
            i += 1
        return True

    monkeypatch.setattr(qs.finite, "_is_prime", is_prime)


def zero_theta_refused(monkeypatch):
    # ControlFunction refuses theta <= 0 where only theta < 0 is out of range
    post_init = qs.stability.ControlFunction.__post_init__

    def refuse_zero(self):
        if self.variant == "constant" and self.theta <= 0:
            raise ValueError("constant control needs theta > 0")
        post_init(self)

    monkeypatch.setattr(qs.stability.ControlFunction, "__post_init__", refuse_zero)


def norm_fields_unread_by_kind_accepted(monkeypatch):
    # QuasiNormSpec checks the kind, dim, p's range and the weights, but no longer refuses
    # a p off lp_quasi or weights off weighted, which its norms then never read
    def post_init(self):
        if self.kind not in qs.algebra._KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "lp_quasi" and not 0.0 < self.p <= 1.0:
            raise ValueError("lp_quasi requires 0 < p <= 1")
        if self.kind == "weighted":
            if self.weights is None or len(self.weights) != self.dim:
                raise ValueError("weighted norm needs one positive weight per coordinate")
            if any(w <= 0.0 for w in self.weights):
                raise ValueError("weights must be positive")
        object.__setattr__(self, "K", 2.0 ** (1.0 / self.p - 1.0) if self.kind == "lp_quasi" else 1.0)

    monkeypatch.setattr(qs.algebra.QuasiNormSpec, "__post_init__", post_init)


def refused_on_their_field(names):
    """A check that each named config of harness_checks._REFUSED exits 2 on its own field."""
    def check(monkeypatch):
        for name in names:
            cfg, path = harness_checks._REFUSED[name]
            try:
                with np.errstate(all="ignore"):
                    qs.harness.run_scenario(cfg, write_csv=False)
            except qs.harness.ScenarioValidationError as err:
                assert err.path == path, name
            else:
                raise AssertionError(f"{name} ran")
    return check


def spaces_against_their_own_basis(monkeypatch):
    # spaces_equal tests each side's nullspace columns against that side's own row
    # basis (RA and RB swapped), which every column satisfies
    finite = qs.finite

    def own_basis(eqA, eqB, G):
        RB, NB = finite._stream_nullspace(finite.enumerate_constraints(eqB, G))
        RA, NA = finite._stream_nullspace(finite.enumerate_constraints(eqA, G))
        dims = (NA.shape[1], NB.shape[1])
        for side, R, V in (("right-only", RB, NB), ("left-only", RA, NA)):
            outside = np.flatnonzero(((R @ V) % G.q).any(axis=0))
            if outside.size:
                return finite.SpaceComparison(False, *dims, certificate=V[:, outside[0]].copy(), side=side)
        return finite.SpaceComparison(True, *dims)

    for namespace in (qs, finite):
        monkeypatch.setattr(namespace, "spaces_equal", own_basis)


def group_without_the_column_cap(monkeypatch):
    # GroupSpec checks d and primality but no longer refuses q^d over the column cap
    def post_init(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not qs.finite._is_prime(self.q) or self.q < 5:
            raise ValueError("q must be a prime >= 5")

    monkeypatch.setattr(qs.finite.GroupSpec, "__post_init__", post_init)


def config_numbers_unwalked(monkeypatch):
    # validate_config checks the schema but no longer refuses a NaN or infinite number
    monkeypatch.setattr(qs.harness, "_non_finite", lambda node, path: None)


def deadzone_passes_any_bound(monkeypatch):
    # _run_deadzone marks every computed bound pass, also one that is not finite
    run, sections = qs.harness._KINDS["deadzone"]

    def passing(config):
        rows, summary = run(config)
        for row in rows:
            if row.status == qs.harness.STATUS_FAIL:
                row.status = qs.harness.STATUS_PASS
        return rows, summary

    monkeypatch.setitem(qs.harness._KINDS, "deadzone", (passing, sections))


# mutant -> (apply it, the check that must fail under it)
MUTANTS = {
    "closed form doubled in _bounds": (
        closed_form_doubled,
        lambda mp: stability_checks.test_bound_engine("forward", "K=1", "power")),
    "_stream_nullspace verifies its first chunk only": (
        stream_first_chunk_only,
        finite_checks.test_late_rows_match_brute_force_enumeration),
    "hyers_iterate off by one in m": (
        iterate_off_by_one,
        lambda mp: stability_checks.test_hyers_iterate_sine_perturbation()),
    "u* replaced by u in conjugate_block": (
        conjugate_by_u,
        lambda mp: stability_checks.test_verify_unitary_covariance_exact()),
    "phi_cap without its 2/n term": (
        phi_cap_without_its_2_over_n,
        lambda mp: stability_checks.test_phi_cap_fast_path_matches_enumeration()),
    "fe3 unitaries drawn from the point generator": (
        unitaries_from_the_point_generator,
        lambda mp: mapping_checks.test_sample_residuals_match_per_tuple_reference_across_blocks(
            "real", "fe3:4", mp)),
    "fe3 unitary generator re-seeded in every block": (
        unitaries_reseeded_per_block,
        lambda mp: mapping_checks.test_sample_residuals_match_per_tuple_reference_across_blocks(
            "complex", "fe3:4", mp)),
    "covariance unitaries read from default_rng(seed)": (
        covariance_unitaries_from_the_seed,
        stability_checks.test_covariance_unitaries_have_their_own_stream),
    "Ginibre real and imaginary normals swapped": (
        ginibre_parts_swapped,
        lambda mp: mapping_checks.test_sample_residuals_match_per_tuple_reference_across_blocks(
            "matrix", "fe3:4", mp)),
    "admissibility gate without its derived factors": (
        admissibility_without_derived_factors,
        lambda mp: finite_checks.test_every_admitted_member_equals_fe1()),
    "_is_prime by floor division": (
        primality_by_floor_division,
        lambda mp: finite_checks.test_composite_moduli_are_refused()),
    "zero constant budget refused": (
        zero_theta_refused,
        lambda mp: stability_checks.test_zero_budgets_are_accepted()),
    "norm fields unread by their kind accepted": (
        norm_fields_unread_by_kind_accepted,
        refused_on_their_field(harness_checks.UNREAD_NORM_FIELDS)),
    "spaces_equal tests each side against its own basis": (
        spaces_against_their_own_basis,
        lambda mp: finite_checks.test_spaces_differ_with_certificate()),
    "GroupSpec without the column cap": (
        group_without_the_column_cap,
        finite_checks.test_group_validation),
    "validate_config without the finiteness walk": (
        config_numbers_unwalked,
        refused_on_their_field(harness_checks.NON_FINITE_NUMBERS)),
    "_run_deadzone passing a bound that is not finite": (
        deadzone_passes_any_bound,
        lambda mp: harness_checks.test_a_deadzone_bound_out_of_range_is_no_pass()),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_the_named_check_kills_the_mutant(mutant, monkeypatch):
    apply, check = MUTANTS[mutant]
    apply(monkeypatch)
    with pytest.raises(AssertionError):
        check(monkeypatch)
