"""quadstab: a desk-scale laboratory for quadratic functional equations.

The library has four layers:

  algebra     quasi-normed coordinate spaces (modulus of concavity K,
              p-norms) and the matrix *-algebra model M_k(C) with Haar
              unitary sampling and the module action
  equations + mappings
              the equation family (fe1, fe2, fe3, fe3_0) as shared term
              lists, closed-form mapping families, `equation_residual`,
              and the unitary-twisted approximate remainder
  finite      exact solution-space oracles over (Z/q)^d: GF(q) nullspaces,
              equation equivalence certificates, polarization, and the
              inner-product-space characterization of real norms
  stability   power and constant control budgets, closed-form and
              truncated-series error bounds (quasi-norm and p-norm), the
              forward/backward direct method iteration, and bound audits

The harness module adds JSON scenario configs, preset experiments, CSV
emission, and the `quadstab` command line tool.
"""

from .algebra import (
    QuasiNormSpec,
    act,
    codomain_norm,
    concavity_modulus_estimate,
    conjugate_value,
    coordinate_magnitudes,
    euclidean,
    l1,
    lp_quasi,
    norm_eval,
    random_point,
    sample_unitary,
    weighted,
)
from .equations import EquationSpec, equation_terms, parse_equation
from .mappings import (
    ConstantMap,
    Cosine,
    Custom,
    Domain,
    Mapping,
    MatrixSineBump,
    MatrixSquare,
    Monomial,
    NonFiniteResidualError,
    OddGrowth,
    Perturbed,
    QuadraticForm,
    Scaled,
    Sine,
    Stack,
    SumMapping,
    approximate_remainder,
    empirical_sup_residual,
    equation_residual,
    mapping_from_config,
    sample_residuals,
)
from .finite import (
    CharacterizationResult,
    ConstraintMatrix,
    GroupSpec,
    InadmissibleGroupError,
    SpaceComparison,
    biadditive_from_quadratic,
    check_admissible,
    check_diagonal,
    constraints_hold,
    enumerate_constraints,
    gf_nullspace,
    gf_rref,
    inner_product_characterization,
    nullspace_basis,
    spaces_equal,
)
from .stability import (
    ControlFunction,
    CovarianceReport,
    DivergenceError,
    OpenProblemError,
    ProbeResult,
    StabilityConfig,
    StabilityReport,
    bound,
    closed_form_bounds,
    constant,
    fit_constant_level,
    fit_power_amplitude,
    hyers_iterate,
    iterate_gap_bound,
    phi_cap,
    power,
    power_regime,
    series_bound_backward,
    series_bound_backward_p,
    series_bound_forward,
    series_bound_forward_p,
    stabilize,
    verify_unitary_covariance,
)

__version__ = "0.1.0"
