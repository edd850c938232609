"""Command-line front end.

Subcommands: analyze (spectrum, concurrence, split summary), decompose
(full split with invariant residuals), generate (states from target
spectra), verify (randomized property suites).  Exit codes: 0 success,
2 unreadable input or bad parameters, 3 a named state invariant or a
record's residual check failed, 4 a certificate or invariant check came
back negative, 5 a property suite failed.  Set LSD_TOOLKIT_LOG=info or
debug for progress logging on stderr.

--format json writes each payload as one compact line through the
stdlib's C JSON encoder, so every payload is a JSON Lines record; keys,
their order and every value are those of json.dumps(payload, indent=2),
which `python -m json.tool --indent 2 FILE` prints byte for byte.
--format text is the layout for reading.  An --output, --input or
--params path is used whenever it is given: an empty one exits 2 like
any other unreadable path.

main(argv) may be called repeatedly in one process: the argument parser
is built on the first call and reused, so each later call pays only for
its command.  A --tol value must be a finite number >= 0.
"""

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
import time

from .coset import CosetParams, coset_generate
from .errors import LsdToolkitError
from .lsd import (
    average_concurrence,
    ls_decompose,
    split_invariants,
    verify_optimality,
)
from .matcore import _checked_tol
from .qstate import DensityMatrix, from_json, to_json
from .suites import SUITES, _random_params
from .wootters import _concurrence_of, _eof_of, wootters_basis

log = logging.getLogger("lsd_toolkit")


def _setup_logging():
    level = os.environ.get("LSD_TOOLKIT_LOG", "off").strip().lower()
    if level in ("info", "debug"):
        logging.basicConfig(
            level=logging.INFO if level == "info" else logging.DEBUG,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )


def _load_json(path):
    """Parsed JSON plus a path label and the sha256 of the raw bytes."""
    if path is None or path == "-":
        data = sys.stdin.read().encode("utf-8")
        label = "<stdin>"
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        label = path
    return json.loads(data.decode("utf-8")), label, hashlib.sha256(data).hexdigest()


def _fmt_scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, float):
        # %g keeps the magnitude of a tolerance or a residual, 1e-08 not 0.000000
        return "%.6g" % v
    return str(v)


def _is_scalar(v):
    return v is None or isinstance(v, (bool, int, float, str))


def _text_lines(obj, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [("%s: " % k, v) for k, v in obj.items()]
    elif isinstance(obj, list):
        items = [("- ", v) for v in obj]
    else:
        return [pad + _fmt_scalar(obj)]
    lines = []
    for head, v in items:
        if _is_scalar(v):
            lines.append(pad + head + _fmt_scalar(v))
        elif isinstance(v, list) and all(_is_scalar(x) for x in v):
            lines.append(pad + head + "[%s]" % ", ".join(_fmt_scalar(x) for x in v))
        else:
            lines.append(pad + head.rstrip())
            lines.extend(_text_lines(v, indent + 1))
    return lines


def _emit(payload, args):
    if args.format == "json":
        # no indent, so json runs its C encoder: one compact line
        text = json.dumps(payload)
    else:
        text = "\n".join(_text_lines(payload, 0))
    if args.output is not None:
        with open(args.output, "wb") as fh:
            fh.write((text + "\n").encode("utf-8"))
    else:
        print(text)


def _certify(rho, d, args, payload):
    """With --certify, add the certificate to payload; 4 if it rejects, else 0."""
    if not args.certify:
        return 0
    t0 = time.perf_counter()
    rep = verify_optimality(rho, d, tol=args.tol)
    payload["optimality"] = to_json(rep)
    payload["timings"]["certify"] = time.perf_counter() - t0
    return 0 if rep.verdict else 4


def _load_state(args):
    """The --input state and its {"path", "sha256"} input record."""
    obj, label, digest = _load_json(args.input)
    return from_json(DensityMatrix, obj), {"path": label, "sha256": digest}


def cmd_analyze(args):
    rho, source = _load_state(args)
    t0 = time.perf_counter()
    # the basis ls_decompose reads next, so the printed spectrum and the
    # split's class come from one Takagi factorization
    spec = wootters_basis(rho).lambdas
    c = _concurrence_of(spec)
    eof = _eof_of(c)
    t1 = time.perf_counter()
    d = ls_decompose(rho)
    t2 = time.perf_counter()
    avg = None if d.pure is None else average_concurrence(d)
    payload = {
        "input": source,
        "spectrum": to_json(spec),
        "concurrence": c,
        "entanglement_of_formation": eof,
        "lsd": {
            "weight": float(d.weight),
            "rank_class": d.rank_class,
            "average_concurrence": avg,
        },
        "timings": {"analyze": t1 - t0, "decompose": t2 - t1},
    }
    rc = _certify(rho, d, args, payload)
    log.info("analyze finished with exit code %d", rc)
    _emit(payload, args)
    return rc


def cmd_decompose(args):
    rho, source = _load_state(args)
    t0 = time.perf_counter()
    d = ls_decompose(rho)
    t1 = time.perf_counter()
    inv = split_invariants(rho, d)._asdict()
    payload = {
        "input": source,
        "decomposition": to_json(d),
        "invariants": inv,
        "timings": {"decompose": t1 - t0},
    }
    rc = _certify(rho, d, args, payload)
    # written "not v <= tol" so that a NaN invariant fails too
    if any(v is not None and not v <= args.tol for v in inv.values()):
        rc = 4
    log.info("decompose finished with exit code %d", rc)
    _emit(payload, args)
    return rc


def _params_from_args(args):
    """Parameters from --params, from --lambdas and the angles, or from --seed.

    Raises ValueError, naming the option, when an option is given that the
    chosen source does not read.  --seed is read by the random source
    alone, which uses seed 0 when it is absent.
    """
    given = [n for n in ("lambdas", "theta", "xi", "phi") if getattr(args, n) is not None]
    if args.params is not None:
        if given:
            raise ValueError("--%s is not read beside --params" % given[0])
        if args.seed is not None:
            raise ValueError("--seed is not read beside --params")
        obj, _, _ = _load_json(args.params)
        return from_json(CosetParams, obj)
    if args.lambdas is None:
        if given:
            raise ValueError("--%s is read only with --lambdas" % given[0])
        return _random_params(args.seed or 0)
    if args.seed is not None:
        raise ValueError("--seed is not read beside --lambdas")
    # CosetParams converts each entry to float and checks the lengths
    return CosetParams(
        lambdas=args.lambdas.split(","),
        theta=(args.theta or "0,0").split(","),
        xi=(args.xi or "0,0").split(","),
        phi=(args.phi or "0,0").split(","),
    )


def cmd_generate(args):
    p = _params_from_args(args)
    t0 = time.perf_counter()
    res = coset_generate(p)
    t1 = time.perf_counter()
    payload = {
        "state": to_json(res.rho),
        "achieved_spectrum": to_json(res.wootters.lambdas),
        "trace_factor": float(res.trace_factor),
        "params": to_json(p),
        "timings": {"generate": t1 - t0},
    }
    log.info("generated state with trace factor %.6f", res.trace_factor)
    _emit(payload, args)
    return 0


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = {}
    first_fail = None
    t0 = time.perf_counter()
    for nm in names:
        rs = SUITES[nm](n=args.n, seed=args.seed, tol=args.tol)
        results[nm] = [to_json(r) for r in rs]
        for r in rs:
            if not r.passed and first_fail is None:
                first_fail = (nm, r)
        log.info("suite %s done", nm)
    payload = {
        "suites": results,
        "passed": first_fail is None,
        "timings": {"verify": time.perf_counter() - t0},
    }
    _emit(payload, args)
    if first_fail is not None:
        nm, r = first_fail
        print(
            "suite failure: %s/%s (first failing seed %s, max residual %.3e)"
            % (nm, r.name, r.first_failure_seed, r.max_residual),
            file=sys.stderr,
        )
        return 5
    return 0


def _at_least_one(text):
    n = int(text) if text.isdecimal() else 0
    if n < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1, got %r" % text)
    return n


def _tolerance(text):
    try:
        return _checked_tol(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a finite number >= 0, got %r" % text
        ) from None


def _add_output_args(sp):
    sp.add_argument("--output", default=None, help="write the report here")
    sp.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )


@functools.cache
def _build_parser():
    """The command-line parser, built once per process and then reused."""
    p = argparse.ArgumentParser(
        prog="lsd-toolkit",
        description="Two-qubit entanglement splits, certificates, and generators.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    for name, text, func in (
        ("analyze", "spectrum, concurrence, and split summary", cmd_analyze),
        ("decompose", "full split with invariant residuals", cmd_decompose),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--input", default="-", help="state JSON file, or - for stdin")
        _add_output_args(sp)
        sp.add_argument("--tol", type=_tolerance, default=1e-8, help="residual tolerance")
        sp.add_argument(
            "--certify", action="store_true", help="run the optimality certificate as well"
        )
        sp.set_defaults(func=func)

    pg = sub.add_parser("generate", help="state with a target overlap spectrum")
    pg.add_argument("--params", default=None, help="parameter JSON file")
    pg.add_argument("--lambdas", default=None, help="four target values, comma-separated")
    with_lambdas = " (with --lambdas only; default 0,0)"
    pg.add_argument("--theta", help="two angles, comma-separated" + with_lambdas)
    pg.add_argument("--xi", help="two non-negative angles" + with_lambdas)
    pg.add_argument("--phi", help="two angles, comma-separated" + with_lambdas)
    random_only = " (without --params and --lambdas only; default 0)"
    pg.add_argument("--seed", type=int, help="seed for random parameters" + random_only)
    _add_output_args(pg)
    pg.set_defaults(func=cmd_generate)

    pv = sub.add_parser("verify", help="randomized property suites")
    pv.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="all",
        help="which suite to run",
    )
    pv.add_argument("--n", type=_at_least_one, default=100, help="cases per suite")
    pv.add_argument("--seed", type=int, default=0, help="base seed")
    pv.add_argument(
        "--tol",
        type=_tolerance,
        default=None,
        help="override every per-property tolerance",
    )
    _add_output_args(pv)
    pv.set_defaults(func=cmd_verify)
    return p


# generate options whose value is a comma list of numbers
_LIST_OPTIONS = ("--lambdas", "--theta", "--xi", "--phi")


def _is_number_list(text):
    try:
        [float(x) for x in text.split(",")]
    except ValueError:
        return False
    return True


def _join_negative_lists(argv):
    """argv with "--theta -1.2,0.3" rewritten as "--theta=-1.2,0.3".

    argparse takes a separate value that starts with "-" for an option
    unless it is a single plain number, and then reports the list option
    as missing its argument.
    """
    out = []
    for tok in argv:
        joins = out and out[-1] in _LIST_OPTIONS and tok.startswith("-")
        if joins and _is_number_list(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    _setup_logging()
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_negative_lists(argv))
    try:
        return args.func(args)
    except LsdToolkitError as exc:
        print(
            "validation error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr
        )
        return 3
    # RecursionError: JSON nested past the recursion limit of json or from_json
    except (
        ValueError, KeyError, TypeError, OverflowError, OSError, RecursionError
    ) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
