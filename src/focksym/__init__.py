"""Numerical realization of conjugation-symmetric operator semigroups on a
truncated space of entire functions, with evolution-family machinery for the
nonautonomous case.

Everything acts on finite coefficient vectors, plain complex arrays (see
:mod:`focksym.fock`); all analytic claims are exercised as finite-dimensional
residual checks.
"""

from .conjugation import (
    ConjugationParams,
    ConstraintViolation,
    check_involution,
    check_isometry,
    check_matrix_c_symmetry,
    conjugation_matrix,
    standard_conjugation,
)
from .evolution import (
    EvolutionOperator,
    StiffnessError,
    bagchi_hamiltonian,
    check_adjoint_family,
    check_evolution_axioms,
    check_nonauto_stone,
    evolve,
)
from .fock import (
    DEFAULT_TOLERANCES,
    basis_vector,
    evaluate,
    inner_product,
    kernel_vector,
    monomial,
)
from .generator import (
    DivergenceCertificate,
    EmptyPointSpectrum,
    SpectrumReport,
    check_empty_point_spectrum,
    check_generator_fd,
    check_stone_adjoint_relation,
    dissipativity_margin,
    eigen_residuals,
    eigenfunction_coeffs,
    generator_matrix,
    matrix_exponential,
    point_spectrum_predicted,
    resolvent_bound_check,
    spectrum_report,
)
from .semigroup import (
    GROWTH_T_GRID,
    DilationFamily,
    GrowthReport,
    QuadratureError,
    SemigroupFamily,
    TranslationFamily,
    check_semicocycle,
    check_semiflow,
    check_semigroup_law,
    family_eval,
    family_is_bounded,
    growth_report,
    growth_values,
    laplace_resolvent,
    n_omega_estimate,
    norm_w_one_closed_form,
    semigroup_matrices,
    semigroup_matrix,
    solve_scaling_equation,
)
from .wco import (
    BoundednessResult,
    WCOParams,
    apply_wco,
    compose_params,
    is_bounded,
    is_c_selfadjoint_symbols,
    wco_matrices,
    wco_matrix,
)

__version__ = "0.1.0"
