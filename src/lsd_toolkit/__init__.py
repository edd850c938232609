"""Two-qubit entanglement toolkit.

Concurrence and its basis of tilde-orthogonal vectors, maximal
separable-plus-pure splits with optimality certificates, and a
hyperbolic-frame generator for states with prescribed overlap spectra.

__all__ below is the public surface, the one list of it in the package,
grouped by the object of the paper each name serves.  Module-level names
that it leaves out are helpers with no compatibility promise.
"""

from .coset import (
    CosetParams,
    coset_generate,
    haar_su2,
    local_unitary_action,
    params_from_json,
    params_to_json,
    so4r_image,
)
from .errors import (
    DependentVectors,
    LsdToolkitError,
    NoPurePart,
    NotHermitian,
    NotNormalized,
    NotPSD,
    NotSpecialUnitary,
    NotSymmetric,
    NotUnitTrace,
    PhaseConstraintViolated,
    RankDeficient,
    RankMismatch,
    ResidualCheckFailed,
    SingularCoefficients,
    ZeroState,
)
from .lsd import (
    LSDecomposition,
    OptimalityReport,
    average_concurrence,
    ls_decompose,
    lsd_from_json,
    lsd_to_json,
    ppt_check,
    product_ensemble,
    report_from_json,
    report_to_json,
    split_invariants,
    verify_optimality,
)
from .matcore import herm_eig, takagi
from .qstate import (
    DensityMatrix,
    density_from_json,
    density_to_json,
    eigen_ensemble,
    from_json,
    lambda_spectrum,
    lambda_spectrum_raw,
    sample_random,
    to_json,
)
from .suites import (
    PropertyResult,
    run_all_suites,
    run_coset_suite,
    run_lsd_suite,
    run_wootters_suite,
)
from .wootters import (
    WoottersDecomposition,
    concurrence,
    entanglement_of_formation,
    pure_state_entropy,
    tau_matrix,
    wootters_basis,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LsdToolkitError",
    "NotHermitian",
    "NotUnitTrace",
    "NotPSD",
    "NotSymmetric",
    "NotNormalized",
    "DependentVectors",
    "SingularCoefficients",
    "NoPurePart",
    "PhaseConstraintViolated",
    "RankMismatch",
    "RankDeficient",
    "ZeroState",
    "NotSpecialUnitary",
    "ResidualCheckFailed",
    # the state rho and its lambda spectrum
    "DensityMatrix",
    "sample_random",
    "lambda_spectrum",
    "lambda_spectrum_raw",
    "herm_eig",
    # the Wootters basis |x_i>, concurrence and entanglement of formation
    "eigen_ensemble",
    "tau_matrix",
    "takagi",
    "WoottersDecomposition",
    "wootters_basis",
    "concurrence",
    "entanglement_of_formation",
    "pure_state_entropy",
    # the maximal separable split and its optimality conditions
    "LSDecomposition",
    "ls_decompose",
    "average_concurrence",
    "product_ensemble",
    "split_invariants",
    "ppt_check",
    "OptimalityReport",
    "verify_optimality",
    # the SO(4,c) generator and local unitaries
    "CosetParams",
    "coset_generate",
    "local_unitary_action",
    "so4r_image",
    "haar_su2",
    # JSON codecs
    "to_json",
    "from_json",
    "density_to_json",
    "density_from_json",
    "lsd_to_json",
    "lsd_from_json",
    "report_to_json",
    "report_from_json",
    "params_to_json",
    "params_from_json",
    # property suites
    "PropertyResult",
    "run_wootters_suite",
    "run_lsd_suite",
    "run_coset_suite",
    "run_all_suites",
]
