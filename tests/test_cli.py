import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lsd_toolkit import cli, qstate, suites, wootters
from lsd_toolkit.cli import main
from lsd_toolkit.coset import params_from_json, params_to_json
from lsd_toolkit.lsd import lsd_from_json, report_from_json, verify_optimality, ls_decompose
from lsd_toolkit.qstate import (
    DensityMatrix,
    density_from_json,
    density_to_json,
    sample_random,
)
from lsd_toolkit.suites import _random_params
from lsd_toolkit.wootters import _concurrence_of, _eof_of, wootters_basis
from test_lsd import _counted

REPO = Path(__file__).resolve().parents[1]
E = np.eye(4)
PHI_P = (E[:, 0] + E[:, 3]) / np.sqrt(2.0)


def werner(p):
    return DensityMatrix(p * np.outer(PHI_P, PHI_P) + (1.0 - p) * np.eye(4) / 4.0)


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(density_to_json(sample_random(1, rank=4))))
    return str(path)


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner.json"
    path.write_text(json.dumps(density_to_json(werner(0.5))))
    return str(path)


class TestAnalyze:
    def test_werner_values(self, werner_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["analyze", "--input", werner_file, "--output", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert abs(obj["concurrence"] - 0.25) < 1e-10
        assert abs(obj["entanglement_of_formation"] - 0.117618873770918) < 1e-10
        assert np.max(np.abs(np.array(obj["spectrum"]) - [0.625, 0.125, 0.125, 0.125])) < 1e-10
        assert abs(obj["lsd"]["weight"] - 0.75) < 1e-10
        assert obj["lsd"]["rank_class"] == "full"
        assert len(obj["input"]["sha256"]) == 64
        assert obj["timings"]

    def test_stdout_json(self, werner_file, capsys):
        assert main(["analyze", "--input", werner_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert "concurrence" in obj

    def test_stdin_dash(self, capsys, monkeypatch):
        payload = json.dumps(density_to_json(werner(0.5)))
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        assert main(["analyze", "--input", "-"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["input"]["path"] == "<stdin>"

    def test_text_format(self, werner_file, capsys):
        argv = ["analyze", "--input", werner_file, "--certify", "--format", "text"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "concurrence: 0.25" in lines
        # six significant digits, so a tolerance keeps its magnitude
        assert "      tol: 1e-08" in lines

    def test_one_spectrum_per_run(self, state_file, tmp_path, monkeypatch):
        # the spectrum is the lambdas of the basis the split reads: one
        # Takagi factorization, and no SVD-route spectrum
        spectra = _counted(monkeypatch, qstate, "_spectrum_of_eig")
        takagis = _counted(monkeypatch, wootters, "takagi")
        out = tmp_path / "out.json"
        assert main(["analyze", "--input", state_file, "--output", str(out)]) == 0
        assert len(spectra) == 0
        assert len(takagis) == 1
        monkeypatch.undo()
        obj = json.loads(out.read_text())
        rho = density_from_json(json.loads(Path(state_file).read_text()))
        lam = wootters_basis(rho).lambdas
        assert obj["spectrum"] == lam.tolist()
        assert obj["concurrence"] == _concurrence_of(lam)
        assert obj["entanglement_of_formation"] == _eof_of(_concurrence_of(lam))

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_output_file_bytes(self, fmt, tmp_path):
        payload = {
            "input": {"path": "st\u00e4te.json", "sha256": "0" * 64},
            "spectrum": [0.5, 0.25, 1e-08, 0.0],
            "lsd": {"weight": 0.75, "average_concurrence": None, "ok": True},
        }
        out = tmp_path / "out"
        cli._emit(payload, argparse.Namespace(format=fmt, output=str(out)))
        if fmt == "json":
            expected = json.dumps(payload) + "\n"
        else:
            expected = "\n".join(cli._text_lines(payload, 0)) + "\n"
        assert out.read_bytes() == expected.encode("utf-8")

    def test_certify_good_state(self, state_file):
        assert main(["analyze", "--input", state_file, "--certify", "--output", "/dev/null"]) == 0

    def test_empty_output_path_exits_two(self, state_file, capsys):
        assert main(["analyze", "--input", state_file, "--output", ""]) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "{state}", "--certify"],
        ["decompose", "--input", "{state}", "--certify"],
        ["generate", "--seed", "5"],
        ["verify", "--suite", "all", "--n", "2"],
    ],
    ids=["analyze", "decompose", "generate", "verify"],
)
def test_json_payload_is_one_compact_line(argv, state_file, tmp_path, capsys):
    argv = [a.format(state=state_file) for a in argv]
    out = tmp_path / "out.json"
    assert main(argv + ["--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text)) + "\n"
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed.count("\n") == 1
    from_file, from_stdout = json.loads(text), json.loads(printed)
    from_file.pop("timings")
    from_stdout.pop("timings")
    assert from_stdout == from_file


class TestDecompose:
    def test_round_trip_and_certificate(self, state_file, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["decompose", "--input", state_file, "--certify", "--output", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        d = lsd_from_json(obj["decomposition"])
        rho = density_from_json(json.loads(Path(state_file).read_text()))
        recon = d.weight * d.sep.m
        if d.pure is not None:
            recon = recon + (1.0 - d.weight) * np.outer(d.pure, np.conj(d.pure))
        assert np.max(np.abs(recon - rho.m)) < 1e-9
        rep = report_from_json(obj["optimality"])
        assert rep.verdict
        for key in ("reconstruction", "ensemble_sum", "zero_concurrence"):
            assert obj["invariants"][key] < 1e-9

    def test_matches_library_decomposition(self, state_file, tmp_path):
        out = tmp_path / "out.json"
        main(["decompose", "--input", state_file, "--output", str(out)])
        obj = json.loads(out.read_text())
        d = lsd_from_json(obj["decomposition"])
        rho = density_from_json(json.loads(Path(state_file).read_text()))
        expect = ls_decompose(rho)
        assert d.weight == expect.weight
        assert d.rank_class == expect.rank_class
        assert np.max(np.abs(d.sep.m - expect.sep.m)) < 1e-15

    def test_tiny_tol_fails(self, state_file):
        rc = main(["decompose", "--input", state_file, "--tol", "1e-20", "--output", "/dev/null"])
        assert rc == 4

    def test_nan_invariant_fails(self, state_file, monkeypatch):
        real = cli.split_invariants

        def nan_reconstruction(rho, d):
            return real(rho, d)._replace(reconstruction=float("nan"))

        monkeypatch.setattr(cli, "split_invariants", nan_reconstruction)
        rc = main(["decompose", "--input", state_file, "--output", "/dev/null"])
        assert rc == 4

    def test_certify_solves_three_eigenproblems(self, state_file, monkeypatch):
        # the input state, its Takagi embedding and the separable part's
        # partial transpose; the separable part itself is never solved
        calls = _counted(monkeypatch, np.linalg, "eigh")
        argv = ["decompose", "--input", state_file, "--certify", "--output", "/dev/null"]
        assert main(argv) == 0
        assert len(calls) == 3


class TestGenerate:
    def test_solves_no_eigenproblem(self, monkeypatch):
        calls = _counted(monkeypatch, np.linalg, "eigh")
        assert main(["generate", "--seed", "3", "--output", "/dev/null"]) == 0
        assert calls == []

    def test_explicit_params(self, tmp_path):
        out = tmp_path / "out.json"
        rc = main(
            [
                "generate",
                "--lambdas", "0.4,0.3,0.2,0.1",
                "--theta", "0.3,-0.2",
                "--xi", "0.5,0.1",
                "--phi", "0,0",
                "--output", str(out),
            ]
        )
        assert rc == 0
        obj = json.loads(out.read_text())
        rho = density_from_json(obj["state"])
        p = params_from_json(obj["params"])
        assert p.lambdas == (0.4, 0.3, 0.2, 0.1)
        achieved = np.array(obj["achieved_spectrum"])
        target = np.array(p.lambdas) / obj["trace_factor"]
        assert np.max(np.abs(achieved - target)) < 1e-8
        assert abs(np.trace(rho.m).real - 1.0) < 1e-10

    def test_seeded_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--seed", "5", "--output", str(a)]) == 0
        assert main(["generate", "--seed", "5", "--output", str(b)]) == 0
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        for key in ("state", "params", "achieved_spectrum", "trace_factor"):
            assert ja[key] == jb[key]

    def test_seed_draws_the_suite_parameters(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["generate", "--seed", "5", "--output", str(out)]) == 0
        assert params_from_json(json.loads(out.read_text())["params"]) == _random_params(5)

    def test_params_file(self, tmp_path):
        pfile = tmp_path / "p.json"
        pfile.write_text(
            json.dumps(
                {
                    "lambdas": [0.4, 0.3, 0.2, 0.1],
                    "theta": [0.0, 0.0],
                    "xi": [0.0, 0.0],
                    "phi": [0.0, 0.0],
                }
            )
        )
        out = tmp_path / "out.json"
        assert main(["generate", "--params", str(pfile), "--output", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert abs(obj["trace_factor"] - 1.0) < 1e-12

    def test_options_the_source_does_not_read_exit_two(self, tmp_path, capsys):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(params_to_json(_random_params(3))))
        lambdas = ["--lambdas", "0.4,0.3,0.2,0.1"]
        for argv, named in (
            (["--theta", "1,1", "--xi", "2,0", "--seed", "3"], "--theta"),
            (["--phi", "0,1"], "--phi"),
            (["--params", str(pfile), *lambdas], "--lambdas"),
            (["--params", str(pfile), "--xi", "0,0"], "--xi"),
            (["--params", str(pfile), "--seed", "9"], "--seed"),
            ([*lambdas, "--seed", "5"], "--seed"),
        ):
            assert main(["generate", *argv, "--output", "/dev/null"]) == 2
            assert named in capsys.readouterr().err
        # with --lambdas, an angle left out is 0,0
        out = tmp_path / "out.json"
        assert main(["generate", *lambdas, "--xi", "0.5,0", "--output", str(out)]) == 0
        p = params_from_json(json.loads(out.read_text())["params"])
        assert (p.theta, p.xi, p.phi) == ((0.0, 0.0), (0.5, 0.0), (0.0, 0.0))

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["--params", ""], "input error"),
            (["--params", "", "--seed", "3"], "--seed"),
            (["--seed", "1", "--output", ""], "input error"),
        ],
        ids=["params", "params-and-seed", "output"],
    )
    def test_empty_path_exits_two(self, argv, named, capsys):
        # an empty path is a path that cannot be opened, not an absent option
        assert main(["generate", *argv]) == 2
        assert named in capsys.readouterr().err

    def test_rejects_negative_xi(self):
        rc = main(
            [
                "generate",
                "--lambdas", "0.4,0.3,0.2,0.1",
                "--theta", "0,0",
                "--xi=-0.5,0",
                "--phi", "0,0",
                "--output", "/dev/null",
            ]
        )
        assert rc == 2

    def test_rejects_short_lambdas(self):
        rc = main(
            [
                "generate",
                "--lambdas", "0.4,0.3",
                "--theta", "0,0",
                "--xi", "0,0",
                "--phi", "0,0",
                "--output", "/dev/null",
            ]
        )
        assert rc == 2

    def test_list_starting_with_a_minus_sign(self, tmp_path):
        # "--theta -1.2,0.3" parses like "--theta=-1.2,0.3"
        lam = ["--lambdas", "0.4,0.3,0.2,0.1"]
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        angles = ["--theta", "-1.2,0.3", "--xi", "0.5,0.1", "--phi", "-.5,-0.25"]
        assert main(["generate", *lam, *angles, "--output", str(spaced)]) == 0
        angles = ["--theta=-1.2,0.3", "--xi", "0.5,0.1", "--phi=-.5,-0.25"]
        assert main(["generate", *lam, *angles, "--output", str(joined)]) == 0
        obj = json.loads(spaced.read_text())
        assert obj["params"]["theta"] == [-1.2, 0.3]
        assert obj["params"]["phi"] == [-0.5, -0.25]
        obj.pop("timings")
        expect = json.loads(joined.read_text())
        expect.pop("timings")
        assert obj == expect

    def test_negative_list_still_rejected_where_invalid(self, capsys):
        rc = main(
            ["generate", "--lambdas", "0.4,0.3,0.2,0.1", "--xi", "-0.5,0", "--output", "/dev/null"]
        )
        assert rc == 2
        assert "xi angles must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--lambdas", "nan,0.1,0.1,0.1"),
            ("--lambdas", "inf,0.1,0.1,0.1"),
            ("--theta", "0,nan"),
            ("--xi", "inf,0"),
            ("--xi", "0,-inf"),
            ("--phi", "-inf,0"),
        ],
    )
    def test_rejects_non_finite_flags(self, flag, value, capsys):
        argv = ["generate", "--lambdas", "0.4,0.3,0.2,0.1", flag, value]
        assert main(argv + ["--output", "/dev/null"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_params_file(self, tmp_path, bad, capsys):
        pfile = tmp_path / "p.json"
        pfile.write_text(
            '{"lambdas": [0.4, 0.3, 0.2, 0.1], "theta": [0.0, %s], '
            '"xi": [0.0, 0.0], "phi": [0.0, 0.0]}' % bad
        )
        assert main(["generate", "--params", str(pfile), "--output", "/dev/null"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_rejects_a_string_field_in_params_file(self, tmp_path, capsys):
        pfile = tmp_path / "p.json"
        pfile.write_text('{"lambdas": "4321", "theta": [0, 0], "xi": [0, 0], "phi": [0, 0]}')
        assert main(["generate", "--params", str(pfile), "--output", "/dev/null"]) == 2
        assert "expected float" in capsys.readouterr().err

    def test_squeezed_states_round_trip_through_analyze(self, tmp_path, capsys):
        # max xi in [4.5, 6]: valid parameters and the states they make are
        # never reported as bad input; seeds 51 and 60 give splits whose
        # independence margin is below 1e-6, which the certificate reports
        # and does not reject
        pfile, out, state = (tmp_path / n for n in ("p.json", "out.json", "s.json"))
        generated, analyzed = [], []
        for seed in range(64):
            p = _random_params(seed)
            p = dataclasses.replace(p, xi=(4.5 + 0.75 * p.xi[0], 3.0 * p.xi[1]))
            pfile.write_text(json.dumps(params_to_json(p)))
            generated.append(main(["generate", "--params", str(pfile), "--output", str(out)]))
            if generated[-1] == 0:
                state.write_text(json.dumps(json.loads(out.read_text())["state"]))
                argv = ["analyze", "--certify", "--input", str(state)]
                analyzed.append(main(argv + ["--output", "/dev/null"]))
        assert len(analyzed) >= 60
        assert 2 not in generated, capsys.readouterr().err
        # every squeezed state gets a certified split
        assert analyzed == [0] * len(analyzed), capsys.readouterr().err

    @pytest.mark.parametrize(
        "lambdas, angles, named",
        [
            ("0.4,0.3,0.2,0.1", ["--xi", "400,0"], "max xi"),
            ("1e-320,0,0,0", [], "trace factor"),
            ("1e308,1e308,0,0", [], "trace factor"),
        ],
    )
    def test_overflowing_parameters_exit_two(self, lambdas, angles, named, capsys):
        # the frame or the trace factor would leave the float range; the
        # error comes first, so no RuntimeWarning (an error here) is raised
        argv = ["generate", "--lambdas", lambdas, *angles, "--output", "/dev/null"]
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    def test_failed_residual_check_exits_three(self, capsys):
        # the absolute 1e-9 orthogonality check of y_factor fails on rounding
        # alone at these angles; a failed check is not bad input
        angles = ["--theta", "2,2", "--xi", "6,6", "--phi", "2,2"]
        argv = ["generate", "--lambdas", "0.4,0.3,0.2,0.1", *angles]
        assert main(argv + ["--output", "/dev/null"]) == 3
        assert "ResidualCheckFailed" in capsys.readouterr().err


class TestVerify:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["verify", "--suite", "wootters", "--n", "12", "--output", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["passed"] is True
        assert all(r["passed"] for r in obj["suites"]["wootters"])

    def test_all_suites(self, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["verify", "--suite", "all", "--n", "5", "--output", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert set(obj["suites"].keys()) == {"wootters", "lsd", "coset"}

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_rejects_fewer_than_one_case(self, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", n, "--output", "/dev/null"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    def test_nan_residual_exits_five(self, monkeypatch, capsys):
        nan_spectrum = lambda m: np.full(4, np.nan)
        monkeypatch.setattr(suites, "lambda_spectrum_raw", nan_spectrum)
        rc = main(["verify", "--suite", "wootters", "--n", "2", "--output", "/dev/null"])
        assert rc == 5
        assert "suite failure: wootters/spectrum-scaling" in capsys.readouterr().err

    def test_impossible_tol_exits_five(self, capsys):
        rc = main(["verify", "--suite", "lsd", "--n", "4", "--tol", "1e-30", "--output", "/dev/null"])
        assert rc == 5
        err = capsys.readouterr().err
        assert "suite failure: lsd/" in err
        assert "seed" in err


class TestErrorPaths:
    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", "--input", str(bad), "--output", "/dev/null"]) == 2

    def test_missing_file(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["analyze", "--input", missing, "--output", "/dev/null"]) == 2

    def test_invalid_state_exits_three(self, tmp_path):
        obj = density_to_json(sample_random(1))
        obj["matrix"][0][1] = [9.0, 0.0]
        bad = tmp_path / "nh.json"
        bad.write_text(json.dumps(obj))
        assert main(["analyze", "--input", str(bad), "--output", "/dev/null"]) == 3

    def test_nan_state_exits_three(self, tmp_path, capsys):
        obj = density_to_json(sample_random(1))
        obj["matrix"][1][2] = [float("nan"), 0.0]
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(obj))
        assert "NaN" in bad.read_text()
        assert main(["analyze", "--input", str(bad), "--output", "/dev/null"]) == 3
        assert "NotHermitian" in capsys.readouterr().err

    # without the entry bound these give an all-NaN eigenpair ("norms sum
    # to 0", exit 3 from the basis) or numpy's LinAlgError (exit 2)
    @pytest.mark.parametrize(
        "m",
        [np.diag([1e308, -1e308, 0.0, 1.0]), np.full((4, 4), 1e308)],
        ids=["diag", "full"],
    )
    def test_huge_entries_exit_three(self, tmp_path, capsys, m):
        rows = [[[x, 0.0] for x in row] for row in m.tolist()]
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({"matrix": rows}))
        argv = ["analyze", "--input", str(bad), "--output", "/dev/null", "--certify"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "NotHermitian: entry magnitude 1.000e+308 exceeds 2**1000" in err

    @pytest.mark.parametrize("entry", [[0.25], [0.25, 0.0, 1.0]])
    def test_malformed_complex_entry_exits_two(self, tmp_path, capsys, entry):
        obj = density_to_json(sample_random(1))
        obj["matrix"][2][2] = entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["analyze", "--input", str(bad), "--output", "/dev/null"]) == 2
        assert "[re, im]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["analyze", "--input"], ["generate", "--params"]])
    def test_deeply_nested_json_exits_two(self, tmp_path, capsys, argv):
        # nested past the parser's recursion limit, json raises RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert main([*argv, str(deep), "--output", "/dev/null"]) == 2
        assert capsys.readouterr().err.startswith("input error: maximum recursion depth")

    def test_entry_beyond_float_range_exits_two(self, tmp_path):
        obj = density_to_json(sample_random(1))
        obj["matrix"][2][2] = [10**400, 0.0]
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(obj))
        assert main(["analyze", "--input", str(bad), "--output", "/dev/null"]) == 2


class TestToleranceFlag:
    @pytest.mark.parametrize("command", ["analyze", "decompose", "verify"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-9", "abc"])
    def test_rejects_non_finite_or_negative(self, state_file, command, value, capsys):
        argv = [command, "--tol", value, "--output", "/dev/null"]
        if command != "verify":
            argv += ["--input", state_file, "--certify"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "decompose", "verify"])
    def test_zero_is_accepted(self, command):
        assert cli._build_parser().parse_args([command, "--tol", "0"]).tol == 0.0


def _json_run(argv, capsys):
    """Exit code and JSON payload, without its timings, of one main call."""
    rc = main(argv)
    obj = json.loads(capsys.readouterr().out)
    obj.pop("timings")
    return rc, obj


class TestRepeatedCalls:
    def test_parser_is_built_once(self, state_file, capsys):
        cli._build_parser.cache_clear()
        for _ in range(5):
            assert main(["analyze", "--input", state_file]) == 0
            assert main(["verify", "--suite", "wootters", "--n", "1"]) == 0
        capsys.readouterr()
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 9)

    def test_same_argv_same_output(self, state_file, capsys):
        for argv in (
            ["analyze", "--input", state_file, "--certify"],
            ["decompose", "--input", state_file, "--certify"],
            ["generate", "--seed", "3"],
            ["verify", "--suite", "all", "--n", "2"],
        ):
            assert _json_run(argv, capsys) == _json_run(argv, capsys)

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["verify", "--n", "0"], "usage"),
            (["analyze", "--unknown-flag"], "usage"),
            (["analyze", "--input", "{missing}"], 2),
            (["analyze", "--input", "{bad_state}"], 3),
            (["decompose", "--input", "{state}", "--tol", "1e-20"], 4),
            (["verify", "--suite", "lsd", "--n", "2", "--tol", "1e-30"], 5),
        ],
    )
    def test_failed_call_leaves_the_next_unaffected(self, state_file, tmp_path, capsys, argv, code):
        bad = density_to_json(sample_random(1))
        bad["matrix"][0][1] = [9.0, 0.0]
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        paths = {
            "missing": str(tmp_path / "nope.json"),
            "bad_state": str(tmp_path / "bad.json"),
            "state": state_file,
        }
        good = ["analyze", "--input", state_file, "--certify"]
        before = _json_run(good, capsys)
        argv = [a.format(**paths) for a in argv]
        if code == "usage":
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            assert main(argv + ["--output", "/dev/null"]) == code
        capsys.readouterr()
        assert _json_run(good, capsys) == before


def _run_with_src(args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestUninstalledEntry:
    def test_python_dash_m(self, werner_file):
        proc = _run_with_src(["-m", "lsd_toolkit", "analyze", "--input", werner_file])
        assert proc.returncode == 0, proc.stderr
        assert abs(json.loads(proc.stdout)["concurrence"] - 0.25) < 1e-10

    @pytest.mark.parametrize(
        "script", ["entanglement_basics.py", "generator_tour.py", "optimal_split.py"]
    )
    def test_demo_runs(self, script):
        proc = _run_with_src([str(REPO / "demos" / script)])
        assert proc.returncode == 0, proc.stderr


class TestConsoleScript:
    def test_entry_point(self, werner_file):
        proc = subprocess.run(
            ["lsd-toolkit", "analyze", "--input", werner_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.count("\n") == 1
        obj = json.loads(proc.stdout)
        assert abs(obj["concurrence"] - 0.25) < 1e-10

    def test_logging_env(self, werner_file):
        proc = subprocess.run(
            ["lsd-toolkit", "analyze", "--input", werner_file],
            capture_output=True,
            text=True,
            # the caller's PATH finds the script wherever it was installed
            env={**os.environ, "LSD_TOOLKIT_LOG": "debug"},
        )
        assert proc.returncode == 0
