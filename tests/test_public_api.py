"""The public names of `quadstab`, pinned, with one spelling per operation.

A name added to or dropped from the package namespace fails here, so a second
spelling of an operation shows up as a change to `PUBLIC`.  The names in
`REMOVED` were such second spellings; the operation each one named has the
spelling given beside it.
"""

import importlib
import types

import numpy as np
import pytest

import quadstab as qs

PUBLIC = (
    "CharacterizationResult", "ConstantMap", "ConstraintMatrix", "ControlFunction", "Cosine",
    "CovarianceReport", "Custom", "DivergenceError", "Domain", "EquationSpec", "GroupSpec",
    "InadmissibleGroupError", "Mapping", "MatrixSineBump", "MatrixSquare", "Monomial",
    "NonFiniteResidualError", "OddGrowth", "OpenProblemError", "Perturbed", "ProbeResult",
    "QuadraticForm", "QuasiNormSpec", "Scaled", "Sine", "SpaceComparison", "StabilityConfig",
    "StabilityReport", "Stack", "SumMapping",
    "act", "approximate_remainder", "biadditive_from_quadratic", "bound", "check_admissible",
    "check_diagonal", "closed_form_bounds", "codomain_norm", "concavity_modulus_estimate",
    "conjugate_value", "constant", "constraints_hold", "coordinate_magnitudes",
    "empirical_sup_residual", "enumerate_constraints", "equation_residual", "equation_terms",
    "euclidean", "fit_constant_level", "fit_power_amplitude", "gf_nullspace", "gf_rref",
    "hyers_iterate", "inner_product_characterization", "iterate_gap_bound", "l1", "lp_quasi",
    "mapping_from_config", "norm_eval", "nullspace_basis", "parse_equation", "phi_cap", "power",
    "power_regime", "random_point", "sample_residuals", "sample_unitary", "series_bound_backward",
    "series_bound_backward_p", "series_bound_forward", "series_bound_forward_p", "spaces_equal",
    "stabilize", "verify_unitary_covariance", "weighted",
)

# removed name -> the one spelling of its operation
REMOVED = {
    "residual_fe1": 'equation_residual(f, EquationSpec("fe1"), points)',
    "residual_fe2": 'equation_residual(f, EquationSpec("fe2"), points)',
    "residual_fe3": 'equation_residual(f, EquationSpec("fe3", n=n), points)',
    "residual_fe3_0": 'equation_residual(f, EquationSpec("fe3_0", a=a), points)',
    "value_norm": "codomain_norm(None, v)",
    "point_norm": "norm_eval(None, x)",
    "draw_unitary": "mappings._draw_unitaries(rng, domain, 1)[0]",
    "hat": "conjugate_value(u, v), which is abs(u) ** 2 * v on scalars",
}

MODULES = ("quadstab", "quadstab.algebra", "quadstab.equations", "quadstab.mappings",
           "quadstab.finite", "quadstab.stability", "quadstab.harness")


def test_the_package_exports_the_pinned_names():
    exported = {name for name, value in vars(qs).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exported) == sorted(PUBLIC)


@pytest.mark.parametrize("module", MODULES)
def test_no_removed_name_can_be_imported(module):
    namespace = importlib.import_module(module)
    for name in REMOVED:
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})
        assert not hasattr(namespace, name), name
    assert not hasattr(qs.QuasiNormSpec, "norm")  # norm_eval(spec, x)


def test_the_removed_options_are_refused():
    xs = ([1.0], [0.0], [0.0])
    with pytest.raises(TypeError):
        qs.approximate_remainder(qs.Monomial(3), 1.0, 3, xs, mode="avg")
    with pytest.raises(TypeError):
        qs.concavity_modulus_estimate(qs.l1(2), sampler=lambda rng: (np.ones(2), np.ones(2)))

