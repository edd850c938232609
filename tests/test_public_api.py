"""The public surface: lsd_toolkit.__all__, the one list of it in the package."""

import ast
from pathlib import Path

import numpy as np
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
    assert len(PUBLIC) == 57
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


def test_calls_the_benchmark_makes():
    # the library calls of bench/workloads.py, with its arguments and the
    # attributes it reads, so an API change that breaks the traced
    # benchmark fails here too
    lt = lsd_toolkit
    rho = lt.density_from_json(lt.to_json(lt.sample_random(3)))
    lam = lt.lambda_spectrum(rho)
    assert lam.shape == (4,)
    lt.concurrence(rho)
    lt.entanglement_of_formation(rho)
    d = lt.ls_decompose(rho)
    rep = lt.verify_optimality(rho, d, tol=1e-8)
    assert lt.report_to_json(rep)["verdict"] is True
    lt.wootters_basis(rho)
    lt.herm_eig(rho.m)
    _, takagi_lam = lt.takagi(lt.tau_matrix(lt.eigen_ensemble(rho)).tau)
    assert np.max(np.abs(takagi_lam - lam)) < 1e-9
    rho = lt.DensityMatrix(rho.m)
    lt.verify_optimality(rho, lt.ls_decompose(rho), tol=1e-8)
    p = lt.CosetParams(lambdas=lam, theta=(0.1, 0.2), xi=(0.3, 0.4), phi=(0.5, 0.6))
    res = lt.coset_generate(p)
    spec = lt.lambda_spectrum_raw(res.rho.m)
    assert np.max(np.abs(spec - lam / res.trace_factor)) < 1e-9
    for run in (lt.run_wootters_suite, lt.run_lsd_suite, lt.run_coset_suite):
        run(n=1, seed=0)
