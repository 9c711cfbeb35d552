"""Mutant table: each check below must fail when its mutant is in the library.

A mutant is a small, plausible defect, applied with monkeypatch for one test.
Each is paired with the cheap existing check that must catch it; the check
passes unmutated elsewhere in the suite, so here it only has to fail.  A
mutant that survives is a finding that needs a new check, not a reason to
drop the mutant.
"""

import types

import numpy as np
import pytest

import quadstab as qs
import test_finite as finite_checks
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


def fe3_carry_dropped(monkeypatch):
    # each scalar fe3 block decodes as if no word were carried over from the block before
    block = qs.mappings._scalar_fe3_block

    def no_carry(rng, domain, n, start, count, box, carry):
        return block(rng, domain, n, start, count, box, np.uint64(0))

    monkeypatch.setattr(qs.mappings, "_scalar_fe3_block", no_carry)


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


def matrix_points_before_normals(monkeypatch):
    # _matrix_fe3_block draws the points of all its tuples, then all their normals
    def points_first(rng, domain, n, count, box):
        xy = -box + (2.0 * box) * rng.random((count, n, 2) + domain.shape)
        z = rng.standard_normal((count, 2, domain.k, domain.k))
        U = qs.algebra._haar_from_ginibre(qs.algebra._ginibre_from_normals(z))
        return xy[:, :, 0] + 1j * xy[:, :, 1], U

    monkeypatch.setattr(qs.mappings, "_matrix_fe3_block", points_first)


def ginibre_parts_swapped(monkeypatch):
    # the Ginibre matrices take their real parts from the imaginary-part normals and back
    ginibre = qs.algebra._ginibre_from_normals

    def swapped(z):
        return ginibre(z[..., ::-1, :, :])

    for namespace in (qs.algebra, qs.mappings):
        monkeypatch.setattr(namespace, "_ginibre_from_normals", swapped)


# mutant -> (apply it, the check that must fail under it)
MUTANTS = {
    "closed form doubled in _bounds": (
        closed_form_doubled,
        lambda mp: stability_checks.test_bound_engine("forward", "K=1", "power")),
    "_stream_nullspace verifies its first chunk only": (
        stream_first_chunk_only,
        finite_checks.test_late_rows_match_brute_force_enumeration),
    "dropped carry word in _scalar_fe3_block": (
        fe3_carry_dropped,
        lambda mp: mapping_checks.test_scalar_fe3_blocks_decode_the_per_tuple_stream(False, 3, 1, mp)),
    "hyers_iterate off by one in m": (
        iterate_off_by_one,
        lambda mp: stability_checks.test_hyers_iterate_sine_perturbation()),
    "u* replaced by u in conjugate_block": (
        conjugate_by_u,
        lambda mp: stability_checks.test_verify_unitary_covariance_exact()),
    "phi_cap without its 2/n term": (
        phi_cap_without_its_2_over_n,
        lambda mp: stability_checks.test_phi_cap_fast_path_matches_enumeration()),
    "matrix fe3 block draws all its points before its normals": (
        matrix_points_before_normals,
        lambda mp: mapping_checks.test_sample_residuals_match_per_tuple_reference_across_blocks(
            "matrix", "fe3:4", mp)),
    "Ginibre real and imaginary normals swapped": (
        ginibre_parts_swapped,
        lambda mp: mapping_checks.test_sample_residuals_match_per_tuple_reference_across_blocks(
            "matrix", "fe3:4", mp)),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_the_named_check_kills_the_mutant(mutant, monkeypatch):
    apply, check = MUTANTS[mutant]
    apply(monkeypatch)
    with pytest.raises(AssertionError):
        check(monkeypatch)
