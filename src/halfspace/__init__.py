"""Numerical laboratory for divergence-form boundary value problems on
the upper half-space with t-independent coefficients, built on the
first-order (Dirac-type) reformulation over a discrete torus.
"""

from .grid import (
    BoundaryField,
    GridSpec,
    coeffs_to_scalar,
    field_to_vcoords,
    l2_inner,
    l2_norm,
    pi_project,
    remove_mean,
    riesz_adjoint,
    riesz_apply,
    scalar_to_coeffs,
    sobolev_norm,
    v_adjoint,
    v_apply,
    vcoords_to_field,
    vcoords_to_fields,
)
from .errors import NumericalError
from .expr import ExprError, evaluate_expr
from .coeffs import (
    CoefficientField,
    FAMILY_KINDS,
    NonAccretiveError,
    accretivity_bound,
    hat_transform,
    make_family,
    mgamma_perturb,
    stream_gamma,
)
from .operators import (
    BisectorialityError,
    NewtonConvergenceError,
    OperatorMatrix,
    SubspaceError,
    UnreliableDecompositionError,
    assemble_operators,
    assemble_S,
    assemble_calB,
    fractional_power,
    kato_check,
    matrix_sign,
    semigroup_apply,
    spectral_columns,
    spectral_projectors,
)
from .boundary import (
    SgnBlocks,
    SingularBlockError,
    SpectralCore,
    build_core,
    gamma_dn,
    gamma_minus,
    gamma_nd,
    key_lemma_check,
    rellich_constant,
    rellich_from_blocks,
    sgn_blocks,
)
from .quadnorms import (
    PsiSpec,
    c_psi,
    default_psi,
    quad_norm_S,
    quad_norm_adapted,
    semigroup_norm,
)
from .solvers import (
    IllPosedError,
    SolutionHandle,
    StripField,
    evaluate,
    evaluate_full_gradient,
    residual_check,
    solve_dirichlet_l2,
    solve_energy,
    solve_neumann_l2,
    solve_regularity_l2,
)
from .oracle import (
    OracleSolution,
    StripMesh,
    coercivity_check,
    energy_solve_neumann,
    energy_solve_regularity,
    extract_conormal,
    gamma_nd_comparison,
    gamma_nd_variational,
    strip_gradient_error,
    uniqueness_probe,
)
from .stripnorms import (
    WhitneyParams,
    default_t_grid,
    energy_norm,
    nontangential_norm,
    square_function_norm,
)
from .dump import (
    load_coefficient_spec,
    read_field,
    read_matrix_csv,
    write_field,
    write_matrix_csv,
    write_report,
    write_strip_field,
)

__version__ = "0.1.0"
