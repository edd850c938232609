"""Seeded benchmark of lsd_toolkit: four closed-loop workloads, one client.

    python3 bench/run.py --workload analyze_random --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each run makes its inputs from --seed with numpy alone, cycles over them
until --seconds have gone by (at least one whole pass), checks the output
of every operation, and prints a report whose last line is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  Times are in reference units
(ref): after each operation a fixed pure-Python loop that runs no
library code (REF_ITERS iterations, about 0.15 ms) is timed, and an
operation's time is divided by the median loop time of the 51
operations around it.  On a shared 2-core virtual machine the speed of
everything drifts with the other tenants' load, by up to 2x over
minutes.  In two sets of ten seeds taken in a noisy spell, wall-clock
p50 and p95 spread by 8-39% (IQR over median) and the medians moved by
8-21% from one set to the next; in two later sets in reference units
they spread by 1-7% and the medians moved by at most 3%.  An input's time is its fastest pass,
as timeit takes the best of its repeats.  op_p50_ref and op_p95_ref are
percentiles over the inputs, ops_per_kref is the number of inputs per
1000 reference units of operation time, and the wall-clock figures are
printed beside them.  Each workload has at least 200 inputs, so ten or
more lie beyond p95.

--trace 1 is the separate traced run: it wraps each library call the
benchmark makes in a span and reports the per-layer metrics.  Its inputs
are the same mix for every workload (strided slices of all four
workloads' inputs), so each traced run measures every layer.  Spans stay
in memory and go to bench/out/ when the run ends, with a JSON record of
the full result.

An operation fails when it raises, returns a nonzero exit code, gets a
False verdict from the certificate, or misses one of the benchmark's
accuracy checks.  Failures are counted, never skipped: ok_frac is the
share of inputs whose operation passed.  ``correct`` says the run is
sound: the inputs hash to the committed digest for a known seed, and
every input got the same check outcome on every pass (and traced as
untraced).  So ``attempted`` and ``failed`` in the last line count
inputs: they depend on the seed alone, not on how many passes fit into
--seconds on a given machine.

accuracy_digits is -log10 of the worst checked residual, floored at
1e-16, over every property except the certificate's own max_residual.
That residual tracks the conditioning of the restricted inverses, its
worst case over a run swings by about 9% between seeds, and it is judged
by the verdict; it is still reported, as acc.certificate.digits.

Seed 1 is the tuning seed.  HOLDOUT_SEED is never used while tuning a
change; a claimed gain must hold on it as well.

Only this process and the interpreters it starts to measure setup_s are
timed.  Nothing is pinned to a CPU, no frequency governor is changed and
no cache is dropped.  BLAS runs one thread in this process.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

# one BLAS thread, set before numpy loads: the client is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (raises ImportError without the library sources)
from spans import NullTracer, Tracer  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")
HOLDOUT_SEED = 20021
SETUP_REPEATS = 11
REF_ITERS = 2000  # one reference-loop run: about 0.15 ms
REF_HALF_WINDOW = 25  # operations on either side whose reference times are pooled
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import lsd_toolkit.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)

# metric names, units and directions are declared once, in BENCHMARK.json
SPEC_PATH = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")

# per-layer span percentiles: (span name, percentiles)
LAYER_TIMES = (
    ("matcore.herm_eig", (50, 95)),
    ("matcore.takagi", (50, 95)),
    ("qstate.density_from_json", (50,)),
    ("qstate.lambda_spectrum", (50,)),
    ("qstate.lambda_spectrum_raw", (50,)),
    ("wootters.wootters_basis", (50,)),
    ("wootters.concurrence", (50,)),
    ("wootters.entanglement_of_formation", (50,)),
    ("lsd.ls_decompose", (50, 95)),
    ("lsd.verify_optimality", (50, 95)),
    ("lsd.report_to_json", (50,)),
    ("coset.coset_generate", (50, 95)),
)
ACC_PROPERTIES = (
    "reconstruction",
    "weight-identity",
    "ensemble-sum",
    "zero-concurrence",
    "boundary",
    "separable-ppt",
    "certificate",
    "concurrence-two-routes",
    "generated-spectrum",
    "spectrum-two-routes",
    "weight-closed-form",
    "split-reconstruction",
)
# one traced-run input in every STRIDE[w] of workload w's inputs
STRIDE = {
    "analyze_random": 6,
    "boundary_degenerate": 3,
    "generate_squeezed": 16,
    "verify_suites": 5,
}


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and "/" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "machine": platform.machine(),
        "isolation": "nothing pinned, no governor changed, no cache dropped",
    }


def setup_probe():
    """Wall time from starting a fresh interpreter to lsd_toolkit.cli imported."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, workloads.SRC],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    ) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe exited with code %s" % proc.returncode)
    return t1 - t0


def execute(wl, t, case):
    """One operation: (seconds inside the operation, outcome, result)."""
    wl.prepare(case)
    t0 = time.perf_counter()
    try:
        result = wl.op(t, case)
    except Exception as exc:  # a failed operation; counted, the loop goes on
        return time.perf_counter() - t0, workloads.raised(exc), None
    dt = time.perf_counter() - t0
    return dt, wl.check(t, case, result), result


class Tally:
    """Outcomes per input; flags an input whose outcome changes between runs.

    ``attempted`` and ``failed`` count inputs, not operations.  A run
    cycles over its inputs as often as --seconds allows, so the number of
    operations depends on the machine's speed; but every input runs at
    least once and must get the same outcome on every pass (else the run
    is not ``correct``), so counting inputs makes both numbers depend on
    the seed alone.  ``operations`` is the number of operations run.
    """

    def __init__(self):
        self.first = {}
        self.operations = 0
        self.consistent = True

    def add(self, key, outcome):
        self.operations += 1
        prev = self.first.setdefault(key, outcome)
        if prev.key() != outcome.key():
            self.consistent = False

    @property
    def attempted(self):
        return len(self.first)

    @property
    def failed(self):
        return sum(not o.ok for o in self.first.values())

    def reasons(self):
        counts = {}
        for o in self.first.values():
            for r in o.reasons:
                counts[r] = counts.get(r, 0) + 1
        return dict(sorted(counts.items()))

    def ok_frac(self):
        """Share of inputs whose operation passed every check."""
        return 1.0 - self.failed / self.attempted

    def worst(self, exclude=()):
        """Worst residual over the inputs that returned a result."""
        vals = [
            v
            for o in self.first.values()
            for k, v in o.residuals.items()
            if k not in exclude
        ]
        return max(vals) if vals else None

    def worst_by_property(self):
        out = {}
        for o in self.first.values():
            for k, v in o.residuals.items():
                out[k] = max(out.get(k, 0.0), v)
        return out


def digits(residual):
    """Correct decimal digits of a residual: -log10, floored at 1e-16."""
    if not residual <= 1e16:  # NaN or inf: no digit is right
        residual = 1e16
    return -math.log10(max(residual, 1e-16))


def reference_time():
    """Seconds taken by a fixed pure-Python loop that runs no library code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def local_median(values, half):
    """Median of each value's neighbourhood of `half` values on either side."""
    v = np.asarray(values)
    return np.array([np.median(v[max(0, j - half) : j + half + 1]) for j in range(v.size)])


def timed_run(wl, cases, seconds):
    """Cycle over the inputs until `seconds` have passed and every input ran.

    After each operation the reference kernel runs once.  Returns the
    tally, each input's fastest latency in seconds and in reference units,
    the number of operations and the set-up times.  The set-up probes are
    spread evenly over the run, so a slow spell hits few of them.
    """
    null = NullTracer()
    tally = Tally()
    ops = []  # (input index, seconds in the operation, seconds in the reference)
    setup = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_probe())
        elif elapsed >= seconds and len(ops) >= len(cases):
            break
        else:
            i = len(ops) % len(cases)
            dt, outcome, _ = execute(wl, null, cases[i])
            ops.append((i, dt, reference_time()))
            tally.add(i, outcome)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe())
    idx, dts, refs = (np.array(x) for x in zip(*ops))
    in_ref = dts / local_median(refs, REF_HALF_WINDOW)
    best_s = np.full(len(cases), np.inf)
    best_ref = np.full(len(cases), np.inf)
    np.minimum.at(best_s, idx, dts)
    np.minimum.at(best_ref, idx, in_ref)
    return tally, best_s, best_ref, len(ops), setup


def end_to_end(tally, best_ref, setup_times):
    worst = tally.worst(exclude=("certificate",))
    return {
        "ops_per_kref": 1e3 * len(best_ref) / best_ref.sum(),
        "op_p50_ref": float(np.percentile(best_ref, 50)),
        "op_p95_ref": float(np.percentile(best_ref, 95)),
        "ok_frac": tally.ok_frac(),
        "accuracy_digits": digits(worst) if worst is not None else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def wall_times(best_s):
    """The same figures in wall-clock units, for the report only."""
    return {
        "ops_per_s": len(best_s) / best_s.sum(),
        "op_p50_ms": float(np.percentile(best_s, 50)) * 1e3,
        "op_p95_ms": float(np.percentile(best_s, 95)) * 1e3,
    }


def trace_mix(corpora):
    """Strided slices of every workload's inputs, spread evenly over one list."""
    placed = []
    for name, cases in corpora.items():
        idx = range(0, len(cases), STRIDE[name])
        for j, i in enumerate(idx):
            item = (workloads.WORKLOADS[name], (name, i), cases[i])
            placed.append(((j + 0.5) / len(idx), len(placed), item))
    return [item for _, _, item in sorted(placed, key=lambda x: x[:2])]


def traced_run(mix, seconds):
    """Each input untraced and traced, in alternating order, then replayed."""
    null = NullTracer()
    tracer = Tracer()
    tally = Tally()
    ops = {}  # op id -> workload name
    spent = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    done = 0
    while done < len(mix) or time.perf_counter() - start < seconds:
        j = done % len(mix)
        wl, key, case = mix[j]
        done += 1
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if not traced:
                dt, outcome, _ = execute(wl, null, case)
            else:
                tracer.op = len(ops)
                ops[tracer.op] = wl.name
                with tracer.span("op." + wl.name):
                    dt, outcome, result = execute(wl, tracer, case)
                    if result is not None:
                        rho = wl.replay(tracer, case, result)
                        if rho is not None:
                            workloads.probe_layers(tracer, rho)
            spent[traced] += dt
            tally.add(key, outcome)
    return tracer, tally, ops, spent, done / len(mix)


def per_layer(tracer, tally, ops, spent):
    """Per-layer metrics of a traced run.

    Timings are percentiles over every span of that name.  cli.main and
    cli.self_share use the analyze_random operations only: self_share is
    the part of cli.main time not covered by the replayed library calls
    under it.  The counts and acc.*.digits are over the distinct inputs of
    the trace mix.  trace.overhead_frac is the time of the operations with
    spans over their time without, minus 1.
    """
    out = {}
    for name, pcts in LAYER_TIMES:
        d = tracer.durations(name)
        for p in pcts:
            out["%s.p%d_us" % (name, p)] = float(np.percentile(d, p)) * 1e6
    n = workloads.VerifySuites.cases_per_op
    for suite in ("wootters", "lsd", "coset"):
        d = tracer.durations("suites.run_%s_suite" % suite)
        out["suites.run_%s_suite.per_case_us" % suite] = float(np.median(d)) / n * 1e6
    analyze_ops = {k for k, v in ops.items() if v == "analyze_random"}
    cli_idx = {
        i
        for i, s in enumerate(tracer.spans)
        if s[0] == "cli.main" and s[4] in analyze_ops
    }
    cli_time = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in cli_idx)
    covered = sum(s[2] - s[1] for s in tracer.spans if s[3] in cli_idx)
    out["cli.main.p50_us"] = float(
        np.percentile([tracer.spans[i][2] - tracer.spans[i][1] for i in cli_idx], 50)
    ) * 1e6
    out["cli.self_share"] = 1.0 - covered / cli_time
    reasons = {}
    for (wname, _), o in tally.first.items():
        for r in o.reasons:
            reasons[(wname, r)] = reasons.get((wname, r), 0) + 1
    out["lsd.verify_optimality.rejected"] = sum(
        c for (w, r), c in reasons.items() if r == "verdict" and w != "verify_suites"
    )
    out["coset.coset_generate.raised"] = sum(
        c
        for (w, r), c in reasons.items()
        if w == "generate_squeezed" and r.startswith("raised:")
    )
    out["coset.coset_generate.inaccurate"] = reasons.get(
        ("generate_squeezed", "generated-spectrum"), 0
    )
    worst = tally.worst_by_property()
    for prop in ACC_PROPERTIES:
        out["acc.%s.digits" % prop] = digits(worst.get(prop, 0.0))
    out["trace.overhead_frac"] = spent[True] / spent[False] - 1.0
    return out


def declared_units(trace):
    """{metric: unit} that BENCHMARK.json declares for this kind of run."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _known_digest(workload, seed):
    path = os.path.join(BENCH, "digests.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run_one(args):
    env = environment()
    os.makedirs(OUT, exist_ok=True)
    names = list(workloads.WORKLOADS) if args.trace else [args.workload]
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        corpora = {}
        digests = {}
        for name in names:
            corpora[name] = workloads.WORKLOADS[name].make(args.seed, work)
            digests[name] = workloads.digest(corpora[name])
        correct = all(
            _known_digest(name, args.seed) in (None, digests[name]) for name in names
        )
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "environment": env,
            "inputs": {n: {"cases": len(corpora[n]), "sha256": digests[n]} for n in names},
        }
        if args.trace:
            mix = trace_mix(corpora)
            tracer, tally, ops, spent, passes = traced_run(mix, args.seconds)
            metrics = per_layer(tracer, tally, ops, spent)
            record["trace_inputs"] = len(mix)
            record["span_counts"] = {
                n: len(tracer.durations(n)) for n in sorted({s[0] for s in tracer.spans})
            }
            tracer.write(os.path.join(OUT, "%s-seed%d-spans.jsonl" % (args.workload, args.seed)))
        else:
            cases = corpora[args.workload]
            tally, best_s, best_ref, done, setup_times = timed_run(
                workloads.WORKLOADS[args.workload], cases, args.seconds
            )
            passes = done / len(cases)
            metrics = end_to_end(tally, best_ref, setup_times)
            record["wall_clock"] = wall_times(best_s)
            record["setup_times_s"] = setup_times
            record["op_samples"] = len(best_ref)
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: %s" % sorted(set(units) ^ set(metrics)))
    correct = correct and tally.consistent and tally.attempted > 0
    record.update(
        passes=passes,
        operations=tally.operations,
        attempted=tally.attempted,
        failed=tally.failed,
        failed_frac=tally.failed / tally.attempted,
        failures_by_reason=tally.reasons(),
        worst_residual_by_property=tally.worst_by_property(),
        consistent=tally.consistent,
        correct=correct,
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    )
    with open(
        os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
        "w",
        encoding="utf-8",
    ) as fh:
        json.dump(record, fh, indent=1)
    _print_report(record)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def _print_report(rec):
    env = rec["environment"]
    print("# workload %s  seed %d  trace %d  passes %.2f" % (
        rec["workload"], rec["seed"], rec["trace"], rec["passes"]))
    for name, inp in rec["inputs"].items():
        print("# inputs %s: %d cases, sha256 %s" % (name, inp["cases"], inp["sha256"]))
    print("# env python %s, numpy %s, blas %s, blas threads %s, cpu_count %s, nproc %s, "
          "loadavg %s" % (env["python"], env["numpy"], env["blas"], env["blas_threads"],
                          env["cpu_count"], env["nproc"], env["loadavg_at_start"]))
    print("# env %s" % env["isolation"])
    for name, m in rec["metrics"].items():
        print("%-44s %16.6g %s" % (name, m["value"], m["unit"]))
    if "op_samples" in rec:
        print("%-44s %16d count (inputs, each timed at its fastest pass)" % (
            "op_samples", rec["op_samples"]))
        for name, value in rec["wall_clock"].items():
            print("%-44s %16.6g %s   (wall clock, drifts with machine load)" % (
                name, value, "1/s" if name == "ops_per_s" else "ms"))
    print("%-44s %16.6g frac   (%d of %d inputs failed, %d operations run)" % (
        "failed_frac", rec["failed_frac"], rec["failed"], rec["attempted"],
        rec["operations"]))
    print("# failures by reason, per input: %s" % (rec["failures_by_reason"] or "none"))
    print("# correct %s (inputs match digest, outcomes repeat: %s)" % (
        rec["correct"], rec["consistent"]))


def run_all(args):
    """Every workload in its own process, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("workload %s exited with code %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
