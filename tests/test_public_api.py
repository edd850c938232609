"""The public surface: lsd_toolkit.__all__, the one list of it in the package."""

import ast
from pathlib import Path

import pytest

import lsd_toolkit

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "lsd_toolkit"

PUBLIC = [
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
    "SpectrumLambda",
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


def _imported_from_package(path):
    """Names a file imports with ``from lsd_toolkit import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lsd_toolkit"
        for alias in node.names
    ]


def test_all_is_the_declared_surface():
    assert lsd_toolkit.__all__ == PUBLIC
    assert len(set(PUBLIC)) == len(PUBLIC)
    for name in PUBLIC:
        getattr(lsd_toolkit, name)


def test_no_module_declares_its_own_all():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stores = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and node.id == "__all__"
            and isinstance(node.ctx, ast.Store)
        ]
        assert stores == [], path.name


@pytest.mark.parametrize(
    "user",
    [
        "bench/workloads.py",
        "demos/entanglement_basics.py",
        "demos/generator_tour.py",
        "demos/optimal_split.py",
    ],
)
def test_users_import_only_public_names(user):
    # read with ast, so the benchmark is not imported; a submodule such as
    # cli is imported as a module, not as a name of the package
    names = _imported_from_package(REPO / user)
    assert names
    for name in names:
        assert name in PUBLIC or (PACKAGE / (name + ".py")).is_file(), name
