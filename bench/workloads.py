"""The four workloads: seeded inputs, one operation each, and its checks.

Inputs are made with numpy alone, never through lsd_toolkit, so a change
to the library cannot change the data it is measured on.  The states are
built from a known factor g with rho = g g^dag, so every expected value a
check compares against (overlap spectrum, concurrence, optimal separable
weight) follows from an SVD of g^T S g, without any routine of the
library under test.

Every operation goes through a tracer: ``spans.NullTracer`` in the timed
run, ``spans.Tracer`` in the traced run, so both run the same code.
"""

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.isfile(os.path.join(SRC, "lsd_toolkit", "__init__.py")):
    raise ImportError("lsd_toolkit sources not found under %s" % SRC)
sys.path.insert(0, SRC)

import lsd_toolkit  # noqa: E402
from lsd_toolkit import (  # noqa: E402
    CosetParams,
    DensityMatrix,
    cli,
    concurrence,
    coset_generate,
    density_from_json,
    eigen_ensemble,
    entanglement_of_formation,
    herm_eig,
    lambda_spectrum,
    lambda_spectrum_raw,
    ls_decompose,
    report_to_json,
    run_coset_suite,
    run_lsd_suite,
    run_wootters_suite,
    takagi,
    tau_matrix,
    verify_optimality,
    wootters_basis,
)

if not os.path.abspath(lsd_toolkit.__file__).startswith(SRC + os.sep):
    raise ImportError("lsd_toolkit was imported from %s, not %s" % (lsd_toolkit.__file__, SRC))

# spin flip sigma_y (x) sigma_y in the basis |uu>, |ud>, |du>, |dd>
S_YY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float
)

# Bell basis Phi+, Phi-, Psi+, Psi- as columns
BELL = np.array(
    [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex
) / np.sqrt(2.0)

# Tolerances of the benchmark's own checks.  The certificate's structural
# checks are judged by the program's own verdict and pass flags.
TOLS = {
    "spectrum-two-routes": 1e-9,
    "concurrence-two-routes": 1e-9,
    "weight-closed-form": 1e-8,
    "split-reconstruction": 1e-9,
    "generated-spectrum": 1e-8,
}

CERT_TOL = 1e-8  # the CLI's default --tol, used for the library-level certificate


@dataclass
class Case:
    """One input: what the operation needs, and what the checks expect."""

    payload: object
    text: str  # canonical JSON of the input, hashed into the digest
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Result of checking one operation."""

    ok: bool
    reasons: tuple  # names of the failed checks, empty when ok
    residuals: dict  # checked residuals, by property name; empty when it raised

    def key(self):
        return (self.ok, self.reasons, tuple(sorted(self.residuals.items())))


def _rng(seed, tag):
    return np.random.default_rng([seed, tag])


def _haar_su2(rng):
    q = rng.standard_normal(4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def _state_text(m):
    return json.dumps(
        {"matrix": [[[float(x.real), float(x.imag)] for x in row] for row in m]}
    )


def expected_from_factor(g):
    """Overlap spectrum, concurrence and optimal weight of rho = g g^dag.

    The lambdas are the singular values of the symmetric matrix g^T S g.
    With v_1 its leading right singular vector, x_1 = g v_1 is the first
    tilde-orthogonal vector, and the optimal separable weight is
    1 - (C / lambda_1) <x_1|x_1> (1 for a separable state).
    """
    _, s, vh = np.linalg.svd(g.T @ S_YY @ g)
    lam = np.zeros(4)
    lam[: s.size] = s
    c = max(0.0, float(lam[0] - lam[1:].sum()))
    weight = 1.0
    if c > 0.0:
        x1 = g @ vh[0].conj()
        weight = 1.0 - c / float(lam[0]) * float(np.vdot(x1, x1).real)
    return {"lambdas": lam, "concurrence": c, "weight": weight}


def _state_case(g):
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return Case(payload=m, text=_state_text(m), expect=expected_from_factor(g))


def _fail_reasons(residuals):
    return tuple(
        sorted(n for n, r in residuals.items() if n in TOLS and not r <= TOLS[n])
    )


def _split_residuals(m, exp, weight, sep, pure):
    """The benchmark's own checks of a split: reconstruction, weight, concurrence."""
    target = weight * sep
    c_split = 0.0
    if pure is not None:
        target = target + (1.0 - weight) * np.outer(pure, np.conj(pure))
        c_split = (1.0 - weight) * abs(pure @ S_YY @ pure)
    return {
        "split-reconstruction": float(np.max(np.abs(target - m))),
        "weight-closed-form": abs(weight - exp["weight"]),
        "concurrence-two-routes": abs(c_split - exp["concurrence"]),
    }


def raised(exc):
    return Outcome(False, ("raised:" + type(exc).__name__,), {})


def _cli_main(t, argv):
    return t.call("cli.main", cli.main, argv)


def _cli_output(path):
    """The JSON a CLI command wrote, or None when it wrote nothing."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class AnalyzeRandom:
    """CLI ``analyze --certify`` on state files written at set-up.

    Seeded Ginibre states g g^dag with g of shape 4 x r, r cycling 1..4;
    the rank-1 ones are Haar-random pure states.
    """

    name = "analyze_random"
    size = 240

    def make(self, seed, workdir):
        rng = _rng(seed, 1)
        cases = []
        for k in range(self.size):
            r = 1 + k % 4
            g = rng.standard_normal((4, r)) + 1j * rng.standard_normal((4, r))
            case = _state_case(g / np.linalg.norm(g))
            path = os.path.join(workdir, "state-%04d.json" % k)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(case.text)
            case.payload = path
            cases.append(case)
        self.out_path = os.path.join(workdir, "analyze-out.json")
        return cases

    def prepare(self, case):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

    def op(self, t, case):
        argv = ["analyze", "--input", case.payload, "--output", self.out_path, "--certify"]
        return _cli_main(t, argv)

    def check(self, t, case, rc):
        out = _cli_output(self.out_path)
        if out is None:
            return Outcome(False, ("exit:%s" % rc,), {})
        return check_analyze_output(case.expect, rc, out)

    def replay(self, t, case, rc):
        """The calls cmd_analyze makes, in its order, under the cli.main span."""
        with open(case.payload, encoding="utf-8") as fh:
            obj = json.load(fh)
        with t.under(t.last("cli.main")):
            rho = t.call("qstate.density_from_json", density_from_json, obj)
            t.call("qstate.lambda_spectrum", lambda_spectrum, rho)
            t.call("wootters.concurrence", concurrence, rho)
            t.call("wootters.entanglement_of_formation", entanglement_of_formation, rho)
            d = t.call("lsd.ls_decompose", ls_decompose, rho)
            rep = t.call("lsd.verify_optimality", verify_optimality, rho, d, tol=CERT_TOL)
            t.call("lsd.report_to_json", report_to_json, rep)
        t.call("wootters.wootters_basis", wootters_basis, rho)
        return rho


def check_analyze_output(exp, rc, out):
    """Checks of one ``analyze --certify`` payload against the expected values."""
    opt = out["optimality"]
    residuals = {s["name"]: float(s["residual"]) for s in opt["structural"]}
    residuals["certificate"] = float(opt["max_residual"])
    residuals["spectrum-two-routes"] = float(
        np.max(np.abs(np.array(out["spectrum"]) - exp["lambdas"]))
    )
    c_routes = [abs(out["concurrence"] - exp["concurrence"])]
    avg = out["lsd"]["average_concurrence"]
    if avg is not None:
        c_routes.append(abs(avg - exp["concurrence"]))
    residuals["concurrence-two-routes"] = max(c_routes)
    residuals["weight-closed-form"] = abs(out["lsd"]["weight"] - exp["weight"])
    reasons = list(_fail_reasons(residuals))
    if rc != 0:
        reasons.append("exit:%d" % rc)
    if not opt["verdict"]:
        reasons.append("verdict")
    reasons += sorted(s["name"] for s in opt["structural"] if not s["passed"])
    return Outcome(not reasons, tuple(reasons), residuals)


class BoundaryDegenerate:
    """DensityMatrix -> ls_decompose -> verify_optimality on degenerate states.

    Werner and isotropic sweeps, points 1e-6 ... 1e-10 either side of each
    separability boundary, and Bell-diagonal states with degenerate
    weights; then each of these again under a seeded local unitary.  All
    are Bell-diagonal, so rho = g g^dag with g = U B diag(sqrt(p)).

    The near-boundary points draw their random weights and rotations from
    one fixed stream, the same for every seed.  Whether such a point trips
    the certificate depends on its last digits, so seeded draws would make
    the number of failing inputs differ from seed to seed (9 to 11 over
    seeds 1-12).  Fixed, it is the same at every seed, so a fix shows as a
    drop in failed_frac and never as a lucky seed.  The sweeps' rotations
    and the degenerate states still come from the seed.
    """

    name = "boundary_degenerate"
    deltas = (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
    n_degenerate = 70
    near_stream = 0  # seed of the fixed stream of the near-boundary points

    @staticmethod
    def sweeps():
        out = []
        for p in np.linspace(0.0, 1.0, 21):
            out.append(np.array([(1 - p) / 4] * 3 + [p + (1 - p) / 4]))  # Werner
        for f in np.linspace(0.0, 1.0, 21):
            out.append(np.array([f] + [(1 - f) / 3] * 3))  # isotropic
        return out

    def near_boundary(self, rng):
        out = []
        for d in self.deltas:
            for sign in (1.0, -1.0):
                p = 1.0 / 3.0 + sign * d
                out.append(np.array([(1 - p) / 4] * 3 + [p + (1 - p) / 4]))
                f = 0.5 + sign * d
                out.append(np.array([f] + [(1 - f) / 3] * 3))
                rest = rng.random(3) + 0.05
                top = 0.5 + sign * d
                out.append(rng.permutation(np.append(rest / rest.sum() * (1 - top), top)))
        return out

    def degenerate(self, rng):
        """Even k mostly separable, odd k entangled with a degenerate remainder."""
        quads = ((0, 0, 1, 2), (0, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1), (0, 1, 2, 2))
        triples = ((0, 0, 0), (0, 0, 1), (0, 1, 1))
        out = []
        for k in range(self.n_degenerate):
            if k % 2 == 0:
                w = (rng.random(3) + 0.05)[list(quads[(k // 2) % 5])]
                w = w / w.sum()
            else:
                top = rng.uniform(0.5, 1.0)
                rest = (rng.random(2) + 0.05)[list(triples[(k // 2) % 3])]
                w = np.append(top, rest / rest.sum() * (1 - top))
            out.append(rng.permutation(w))
        return out

    def make(self, seed, workdir):
        rng = _rng(seed, 2)
        near = _rng(self.near_stream, 2)
        groups = (
            (self.sweeps(), rng),
            (self.near_boundary(near), near),
            (self.degenerate(rng), rng),
        )
        base = [(BELL * np.sqrt(p), r) for weights, r in groups for p in weights]
        rotated = [np.kron(_haar_su2(r), _haar_su2(r)) @ g for g, r in base]
        return [_state_case(g) for g, _ in base] + [_state_case(g) for g in rotated]

    def prepare(self, case):
        pass

    def op(self, t, case):
        rho = t.call("qstate.DensityMatrix", DensityMatrix, case.payload)
        d = t.call("lsd.ls_decompose", ls_decompose, rho)
        rep = t.call("lsd.verify_optimality", verify_optimality, rho, d, tol=CERT_TOL)
        return rho, d, rep

    def check(self, t, case, result):
        rho, d, rep = result
        residuals = {c.name: float(c.residual) for c in rep.structural}
        residuals["certificate"] = float(rep.max_residual)
        residuals.update(_split_residuals(rho.m, case.expect, d.weight, d.sep.m, d.pure))
        reasons = list(_fail_reasons(residuals))
        if not rep.verdict:
            reasons.append("verdict")
        reasons += sorted(c.name for c in rep.structural if not c.passed)
        return Outcome(not reasons, tuple(reasons), residuals)

    def replay(self, t, case, result):
        return result[0]


class GenerateSqueezed:
    """coset_generate on seeded CosetParams with both xi drawn from [0, 6].

    Checked by the independent second route: lambda_spectrum_raw(rho)
    must match lambdas / trace_factor within 1e-8.
    """

    name = "generate_squeezed"
    size = 1600
    xi_max = 6.0

    def make(self, seed, workdir):
        rng = _rng(seed, 3)
        # (xi_1, xi_2) is uniform on the square [0, xi_max]^2, drawn with
        # max(xi) stratified into `size` equal-probability bins: whether a
        # draw loses digits depends mostly on max(xi), and stratifying it
        # keeps the failing share from swinging between seeds
        n = self.size
        top = self.xi_max * np.sqrt((rng.permutation(n) + rng.random(n)) / n)
        other = top * rng.random(n)
        swap = rng.random(n) < 0.5
        xi = np.where(swap[:, None], np.c_[other, top], np.c_[top, other])
        cases = []
        for k in range(n):
            params = {
                "lambdas": [float(x) for x in np.sort(rng.random(4) + 0.05)[::-1]],
                "theta": [float(x) for x in rng.uniform(-2.0, 2.0, 2)],
                "xi": [float(x) for x in xi[k]],
                "phi": [float(x) for x in rng.uniform(-2.0, 2.0, 2)],
            }
            cases.append(Case(payload=params, text=json.dumps(params)))
        return cases

    def prepare(self, case):
        pass

    def op(self, t, case):
        params = CosetParams(**case.payload)
        return t.call("coset.coset_generate", coset_generate, params)

    def check(self, t, case, res):
        try:
            spec = t.call("qstate.lambda_spectrum_raw", lambda_spectrum_raw, res.rho.m)
        except (lsd_toolkit.LsdToolkitError, ValueError) as exc:
            return raised(exc)
        target = np.array(case.payload["lambdas"]) / res.trace_factor
        residuals = {"generated-spectrum": float(np.max(np.abs(spec - target)))}
        reasons = _fail_reasons(residuals)
        return Outcome(not reasons, reasons, residuals)

    def replay(self, t, case, res):
        return res.rho


SUITES = {
    "wootters": run_wootters_suite,
    "lsd": run_lsd_suite,
    "coset": run_coset_suite,
}


class VerifySuites:
    """CLI ``verify --suite s --n k --seed i``, cycling over the three suites."""

    name = "verify_suites"
    size = 210
    cases_per_op = 1

    def make(self, seed, workdir):
        rng = _rng(seed, 4)
        cases = []
        for k in range(self.size):
            payload = {
                "suite": list(SUITES)[k % 3],
                "n": self.cases_per_op,
                "seed": int(rng.integers(0, 2**31)),
            }
            cases.append(Case(payload=payload, text=json.dumps(payload)))
        self.out_path = os.path.join(workdir, "verify-out.json")
        return cases

    def prepare(self, case):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

    def op(self, t, case):
        p = case.payload
        argv = [
            "verify", "--suite", p["suite"], "--n", str(p["n"]),
            "--seed", str(p["seed"]), "--output", self.out_path,
        ]
        return _cli_main(t, argv)

    def check(self, t, case, rc):
        out = _cli_output(self.out_path)
        if out is None:
            return Outcome(False, ("exit:%s" % rc,), {})
        return check_verify_output(case.payload["suite"], rc, out)

    def replay(self, t, case, rc):
        p = case.payload
        with t.under(t.last("cli.main")):
            t.call("suites.run_%s_suite" % p["suite"], SUITES[p["suite"]], n=p["n"], seed=p["seed"])
        return None


def check_verify_output(suite, rc, out):
    """Checks of one ``verify`` payload: exit code, verdict, every property."""
    residuals = {}
    reasons = []
    for r in out["suites"][suite]:
        residuals[r["name"]] = float(r["max_residual"])
        if not r["passed"]:
            reasons.append(r["name"])
    if rc != 0:
        reasons.append("exit:%d" % rc)
    if not out["passed"]:
        reasons.append("verdict")
    return Outcome(not reasons, tuple(reasons), residuals)


WORKLOADS = {
    w.name: w for w in (AnalyzeRandom(), BoundaryDegenerate(), GenerateSqueezed(), VerifySuites())
}


def digest(cases):
    """sha256 of a workload's generated inputs, in order."""
    h = hashlib.sha256()
    for c in cases:
        h.update(c.text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def probe_layers(t, rho):
    """Time the kernels on an operation's state: herm_eig on rho, takagi on tau.

    A probe that raises (a strongly squeezed generated state can) is
    recorded on its span and skipped; the operation was judged already.
    """
    try:
        t.call("matcore.herm_eig", herm_eig, rho.m)
        ens = t.call("qstate.eigen_ensemble", eigen_ensemble, rho)
        tau = t.call("wootters.tau_matrix", tau_matrix, ens)
        t.call("matcore.takagi", takagi, tau.tau)
    except (lsd_toolkit.LsdToolkitError, ValueError):
        pass
