"""Operator radii, class membership, and dilation verification for
single operators and multivariable operator tuples."""

from .dilation import (
    DilationWitness,
    DivergenceReport,
    PopescuCertificate,
    SimilarityReport,
    TorusUnitarityCertificate,
    build_nonsimilar_pair,
    build_shift_unitary_rho_dilation,
    build_staircase_isometric_dilation,
    build_staircase_pair,
    cyclic_shift,
    divergence_probe,
    nilpotent_jump,
    popescu_conditions,
    torus_unitarity,
    unitary_pencil_pair,
    verify_rho_dilation,
    verify_similarity,
    verify_uniform_rho_dilation,
)
from .errors import CapacityError, InputError, InternalError, PoleError, RhoRadiiError
from .linalg import Embedding, compress, min_eig_hermitian, op_norm, spectral_radius
from .pencil import (
    MatrixPolynomial,
    OperatorTuple,
    eval_on_tuple,
    eval_pencil,
    k_rho_kernel,
    phi_rho,
    plain_multipower,
    psi_rho,
    sym_multipower,
    word_product,
)
from .radii import (
    MembershipVerdict,
    RadiusReport,
    kernel_margin,
    membership_single,
    membership_single_all_conditions,
    membership_tuple,
    numerical_radius,
    numerical_radius_report,
    sample_commuting_tuple,
    sample_commuting_tuples,
    substitute,
    w_rho,
    w_rho_tuple,
)
from .repro import (
    EXPERIMENTS,
    ExperimentReport,
    admissible_eps,
    radius_property_suite,
    repro_class_monotonicity,
    repro_nonsimilar_pair,
    repro_scalar_boundary,
    repro_staircase,
    repro_von_neumann,
)

__version__ = "0.1.0"
