import copy
import hashlib
import importlib.resources
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from invpairs import MatrixPolynomial, problems
from invpairs.cli import (
    ProblemFormatError,
    _run_single_check,
    main,
    parse_problem,
    run_command,
    run_golden_checks,
    serialize_problem,
)

DATA = str(importlib.resources.files("invpairs") / "data")


def data_file(name):
    return f"{DATA}/{name}"


def probe_file(name):
    return f"{DATA}/probes/{name}"


def _as_complex(pairs):
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


class TestProblemFiles:
    def test_bundled_fixture_parses(self):
        P = parse_problem(data_file("ss_2x2.json"))
        assert P.n == 2
        assert P.degree == 2
        want = problems.ss_2x2()
        for a, b in zip(P.coeffs, want.coeffs):
            np.testing.assert_array_equal(a, b)

    # SHA-256 of each fixture's coefficients: dtype, shape and bytes of A_0..A_ell
    FIXTURE_DIGESTS = {
        "diag_4x4": "2f101fd1c0c59b08a9e7fb68268fd4f77ce4cb6aa5db19dacab5e43e35e72243",
        "ss_2x2": "a7c211b5f1e48d615d204598b99b3208c813244c652266ea9b8e49608e3e5d8a",
        "multi_3x3": "2a6a5591baa23424b04b65d080d79f029b67a5432bedd3be7db6b45e8e09e91f",
        "quad_solvents_2x2": "bed228eed9dddbb2d3ec19d435bdbd2c8d2aa6dbd4035286f7a3868bb012e8f3",
        "infinite_family_3x3": "e1df3ee42cfcb98b8a2502083cd95220055d1b1c7df23c865d266f35bd2864ca",
        "infinite_family_3x3_triangular": "9039744ea94c440df924e1cb6af133c1841524a2d40db4f4c8a10fbe371fb34a",
        "residue_diag_2x2": "4f8636e7afbf137519441ee49ee25ade9488b349beeedc8c6489660913f51a9b",
    }

    def test_bundled_fixtures_keep_their_digests(self):
        assert sorted(problems.PROBLEMS) == sorted(self.FIXTURE_DIGESTS)
        for name, ctor in problems.PROBLEMS.items():
            h = hashlib.sha256()
            for A in ctor().coeffs:
                h.update(f"{A.dtype.str}{A.shape}".encode())
                h.update(A.tobytes())
            assert h.hexdigest() == self.FIXTURE_DIGESTS[name], name

    def test_readme_table_repeats_each_description(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        for name in problems.PROBLEMS:
            description = json.loads(Path(data_file(f"{name}.json")).read_text(encoding="utf-8"))["description"]
            assert f"| `{name}` | {description} |" in readme, name

    def test_serialize_round_trip_bit_identical(self, tmp_path):
        P = problems.infinite_family_3x3()  # awkward fractions stress the float text
        path = tmp_path / "p.json"
        path.write_text(serialize_problem(P, name="x"), encoding="utf-8")
        Q = parse_problem(str(path))
        for a, b in zip(P.coeffs, Q.coeffs):
            np.testing.assert_array_equal(a, b)
        # and a second round trip produces identical text
        assert serialize_problem(Q, name="x") == serialize_problem(P, name="x")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ProblemFormatError, match="line 1"):
            parse_problem(str(path))

    def test_truncated_coefficients_rejected(self, tmp_path):
        doc = json.loads(serialize_problem(problems.ss_2x2()))
        doc["coeffs"] = doc["coeffs"][:2]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ProblemFormatError, match="expected 3 coefficient"):
            parse_problem(str(path))

    def test_non_numeric_entry_has_position(self, tmp_path):
        doc = json.loads(serialize_problem(problems.ss_2x2()))
        doc["coeffs"][1][0][1] = ["a", 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ProblemFormatError, match="coefficient 1, row 0, column 1"):
            parse_problem(str(path))

    @pytest.mark.parametrize("field, change, message", [
        # a 1-by-1 problem: at n = true the reader once built a (True, True) array
        ("n", lambda doc: doc.update(n=True), "n and degree must be positive integers"),
        ("degree", lambda doc: doc.update(degree=True, coeffs=doc["coeffs"][:2]),
         "n and degree must be positive integers"),
        ("coefficient entry", lambda doc: doc["coeffs"][0][0].__setitem__(0, [True, False]),
         "coefficient 0, row 0, column 0"),
    ], ids=["n", "degree", "coefficient-entry"])
    def test_json_boolean_is_usage_error(self, field, change, message, tmp_path, capsys):
        doc = json.loads(serialize_problem(MatrixPolynomial([[[2.0]], [[-3.0]], [[1.0]]])))
        change(doc)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ProblemFormatError, match=message):
            parse_problem(str(path))
        assert run_command(["count", str(path), "--center", "1.5", "--radius", "1"]) == 1
        assert message in capsys.readouterr().err

    def test_json_boolean_probe_entry_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "probes.json"
        path.write_text(json.dumps({"u": [[1, 0], [True, 0]], "v": [[1, 0], [1, 0]]}), encoding="utf-8")
        code = run_command(["pair", SS_2X2, "--center", "1,0", "--radius", "0.5", "--probe-file", str(path)])
        assert code == 1
        assert "u[1]: expected a finite [re, im] pair" in capsys.readouterr().err

    def test_bad_shape_has_position(self, tmp_path):
        doc = json.loads(serialize_problem(problems.ss_2x2()))
        doc["coeffs"][0][0] = [[1.0, 0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ProblemFormatError, match="coefficient 0, row 0"):
            parse_problem(str(path))


class TestCommands:
    def test_count_command(self, capsys):
        code = run_command(["count", data_file("ss_2x2.json"), "--center", "1,0", "--radius", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["count"] == 3
        assert out["quality"] <= 1e-6

    def test_overflowing_node_is_a_numerical_failure(self, tmp_path, capsys):
        P = MatrixPolynomial([np.eye(2), np.zeros((2, 2)), 1e300 * np.eye(2)])
        path = tmp_path / "overflow.json"
        path.write_text(serialize_problem(P, name="overflow"), encoding="utf-8")
        code = run_command(["count", str(path), "--radius", "1e10"])
        assert code == 2
        assert "not finite at node 0" in capsys.readouterr().err

    def test_pair_command_matches_golden(self, capsys):
        code = run_command([
            "pair", data_file("ss_2x2.json"),
            "--center", "1,0", "--radius", "0.5", "--m", "3", "--nodes", "64",
            "--probe-file", probe_file("ss_2x2.json"),
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        X = _as_complex(out["X"])
        S = _as_complex(out["S"])
        assert np.abs(X - np.array([[0, -1, -2], [1, 1, 3]])).max() <= 1e-8
        assert np.abs(S - np.array([[0, 0, 1], [1, 0, -3], [0, 1, 3]])).max() <= 1e-8
        assert out["relative_residual"] <= 1e-8

    def test_block_pair_command_yhat(self, capsys):
        code = run_command([
            "block-pair", data_file("multi_3x3.json"),
            "--center", "1,0", "--radius", "0.1", "--m", "5",
            "--probe-file", probe_file("multi_3x3_yhat.json"),
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        Y = _as_complex(out["X"])
        want = np.array([[0, 1, 1, 2, 0], [0, -2, -2, 0, 0], [0, -1.5, -3.5, -3, -4]])
        assert np.abs(Y - want).max() <= 1e-8

    def test_moments_csv_format(self, capsys):
        code = run_command([
            "moments", data_file("diag_4x4.json"),
            "--center", "0.75", "--radius", "0.5", "--count", "4",
            "--probe-file", probe_file("diag_4x4.json"), "--format", "csv",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,mu"
        value = lines[1].split(",", 1)[1]
        assert value.endswith("i")
        assert abs(complex(value[:-1] + "j") - (-3.0)) <= 1e-8

    def test_refine_command(self, capsys):
        code = run_command([
            "refine", data_file("ss_2x2.json"),
            "--center", "1,0", "--radius", "0.5", "--m", "3",
            "--probe-file", probe_file("ss_2x2.json"),
            "--perturb", "1e-3", "--seed", "5",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"]
        assert out["final_residual"] < 1e-12
        assert len(out["residual_history"]) == out["iterations"] + 1

    def test_refine_no_line_search_steps(self, capsys):
        code = run_command([
            "refine", data_file("ss_2x2.json"),
            "--center", "1,0", "--radius", "0.5", "--m", "3",
            "--probe-file", probe_file("ss_2x2.json"),
            "--perturb", "1e-3", "--no-line-search",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert all(t == 1.0 for t in out["step_lengths"])

    def test_cond_and_berr_commands(self, capsys):
        code = run_command([
            "cond", data_file("ss_2x2.json"), "--center", "1,0", "--radius", "0.5",
            "--m", "3", "--probe-file", probe_file("ss_2x2.json"),
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kappa"] == pytest.approx(0.7811407240366046, rel=1e-8)

        code = run_command([
            "berr", data_file("ss_2x2.json"), "--center", "1,0", "--radius", "0.5",
            "--m", "3", "--probe-file", probe_file("ss_2x2.json"),
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eta"] <= 1e-12
        assert out["lower"] <= out["eta"]

    def test_solvent_command(self, capsys):
        code = run_command([
            "solvent", data_file("quad_solvents_2x2.json"),
            "--center", "1.5,0", "--radius", "1.0",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["certified"]
        S = _as_complex(out["S"])
        assert np.abs(S - np.diag([1.0, 2.0])).max() <= 1e-8

    def test_enumerate_command(self, capsys):
        code = run_command(["enumerate", data_file("quad_solvents_2x2.json")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["solvents"]) == 5
        assert out["rejected_subsets"] == [[2, 3]]

    def test_triangular_command(self, capsys):
        code = run_command(["triangular", data_file("infinite_family_3x3_triangular.json")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        kinds = [f["kind"] for f in out["families"]]
        assert kinds == ["none", "affine-family"]
        base = _as_complex(out["families"][1]["base"])
        assert np.abs(base - np.array([[4, 0, 1], [0, 3, -1], [0, 0, 4]])).max() <= 1e-8

    def test_json_determinism(self, capsys):
        argv = [
            "pair", data_file("ss_2x2.json"),
            "--center", "1,0", "--radius", "0.5", "--m", "3",
            "--probe-file", probe_file("ss_2x2.json"),
        ]
        assert run_command(argv) == 0
        first = capsys.readouterr().out
        assert run_command(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = run_command([
            "count", data_file("ss_2x2.json"), "--center", "1,0", "--radius", "0.5",
            "--out", str(target),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["count"] == 3

    def test_block_pair_with_seeded_probes(self, capsys):
        # no probe file: seeded random probes still produce a valid pair
        code = run_command([
            "block-pair", data_file("multi_3x3.json"),
            "--center", "1,0", "--radius", "0.1", "--m", "5", "--xi", "2", "--seed", "3",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["relative_residual"] <= 1e-8

    def test_every_command_has_csv_output(self, capsys):
        argv_sets = [
            ["count", data_file("ss_2x2.json"), "--center", "1,0", "--radius", "0.5"],
            ["pair", data_file("ss_2x2.json"), "--center", "1,0", "--radius", "0.5",
             "--m", "3", "--probe-file", probe_file("ss_2x2.json")],
            ["cond", data_file("ss_2x2.json"), "--center", "1,0", "--radius", "0.5",
             "--m", "3", "--probe-file", probe_file("ss_2x2.json")],
            ["berr", data_file("ss_2x2.json"), "--center", "1,0", "--radius", "0.5",
             "--m", "3", "--probe-file", probe_file("ss_2x2.json")],
            ["solvent", data_file("quad_solvents_2x2.json"), "--center", "1.5,0", "--radius", "1.0"],
            ["enumerate", data_file("quad_solvents_2x2.json")],
            ["triangular", data_file("infinite_family_3x3_triangular.json")],
        ]
        for argv in argv_sets:
            assert run_command(argv + ["--format", "csv"]) == 0, argv[0]
            out = capsys.readouterr().out
            lines = out.splitlines()
            assert len(lines) >= 2, argv[0]
            assert any(ch.isalpha() for ch in lines[0]), argv[0]  # header row


def _csv_layout(command, doc):
    """Header and rows the CSV output of a command must have, built from its JSON document.

    A cell is a string, matched exactly, or a list of [re, im] pairs: the
    space-separated complex numbers of the cell, matched bit for bit.
    """
    def matrix(lead, M):
        return [lead + [str(r)] + [[z] for z in row] for r, row in enumerate(M)]

    if command == "pair":
        return ["matrix", "row", "entries"], [
            *matrix(["X"], doc["X"]), *matrix(["S"], doc["S"]),
            ["relative_residual", "", repr(doc["relative_residual"])]]
    if command == "solvent":
        return ["row", "entries"], [
            *matrix([], doc["S"]), ["residual", repr(doc["residual"])], ["certified", str(doc["certified"])]]
    if command == "enumerate":
        return ["solvent", "row", "entries"], [
            *(row for i, s in enumerate(doc["solvents"]) for row in matrix([str(i)], s["S"])),
            *(["rejected", "", " ".join(map(str, r))] for r in doc["rejected_subsets"])]
    rows = []
    for b, fam in enumerate(doc["families"]):
        lead = [str(b), fam["kind"], fam["diagonal"]]
        if "base" not in fam:
            rows.append(lead + ["", "", ""])
            continue
        rows += matrix(lead + ["base"], fam["base"])
        for d, D in enumerate(fam["directions"]):
            rows += matrix(lead + [f"direction{d}"], D)
    return ["branch", "kind", "diagonal", "matrix", "row", "entries"], rows


class TestCsvLayout:
    @pytest.mark.parametrize("argv", [
        ["pair", data_file("ss_2x2.json"), "--center", "1,0", "--radius", "0.5",
         "--m", "3", "--probe-file", probe_file("ss_2x2.json")],
        ["solvent", data_file("quad_solvents_2x2.json"), "--center", "1.5,0", "--radius", "1.0"],
        ["enumerate", data_file("quad_solvents_2x2.json")],
        ["triangular", data_file("infinite_family_3x3_triangular.json")],
    ], ids=lambda argv: argv[0])
    def test_rows_carry_the_json_entries_bit_for_bit(self, capsys, argv):
        assert run_command(argv + ["--format", "json"]) == 0
        header, expected = _csv_layout(argv[0], json.loads(capsys.readouterr().out))
        assert run_command(argv + ["--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert rows[0] == header
        assert len(rows) == len(expected) + 1 and len(expected) > 2
        for row, cells in zip(rows[1:], expected):
            assert len(row) == len(cells), row
            for text, want in zip(row, cells):
                if isinstance(want, str):
                    assert text == want, row
                    continue
                parts = text.split(" ")
                assert len(parts) == len(want) and all(part.endswith("i") for part in parts), row
                for part, (re, im) in zip(parts, want):
                    z = complex(part[:-1] + "j")
                    assert (z.real.hex(), z.imag.hex()) == (float(re).hex(), float(im).hex()), row


SS_2X2 = data_file("ss_2x2.json")


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["count", SS_2X2, "--radius", "-1"],
        ["count", SS_2X2, "--nodes", "2"],
        ["pair", SS_2X2, "--m", "0"],
        ["moments", SS_2X2, "--count", "0"],
        ["block-pair", SS_2X2, "--xi", "0"],
        ["refine", SS_2X2, "--tol", "-1"],
        ["refine", SS_2X2, "--maxit", "-1"],
        ["solvent", SS_2X2, "--tol", "0"],
        ["bench", "--tol", "-1"],
        ["bench", "--maxit", "-1"],
    ])
    def test_out_of_range_argument_is_usage_error(self, argv, capsys):
        assert run_command(argv) == 1
        assert "not in the range" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["count", SS_2X2, "--radius", "nan"],
        ["count", SS_2X2, "--radius", "inf"],
        ["count", SS_2X2, "--center", "nan"],
        ["count", SS_2X2, "--center", "1,inf"],
        ["refine", SS_2X2, "--tol", "nan"],
        ["solvent", SS_2X2, "--tol", "nan"],
        ["refine", SS_2X2, "--perturb", "nan"],
    ])
    def test_non_finite_number_is_usage_error(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command(argv) == 1
        assert "is not a finite" in capsys.readouterr().err

    def test_probe_block_wider_than_n_is_usage_error(self, capsys):
        code = run_command(["block-pair", SS_2X2, "--center", "1", "--radius", "0.5", "--xi", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert "'--xi'" in err and "xi = 3 exceeds n = 2" in err

    @pytest.mark.parametrize("command, fixture, probes, kind", [
        ("pair", "multi_3x3", "multi_3x3_yhat", "scalar probes need fields 'u' and 'v'"),
        ("block-pair", "ss_2x2", "ss_2x2", "block probes need fields 'U' and 'V'"),
    ])
    def test_probe_file_without_the_commands_fields_is_usage_error(self, command, fixture, probes, kind, capsys):
        code = run_command([command, data_file(f"{fixture}.json"), "--probe-file", probe_file(f"{probes}.json")])
        assert code == 1
        assert kind in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        5,
        {"U": [[[1, 0]], 7], "V": [[[1, 0]], [[0, 1]]]},
        {"U": [[[1, 0], [0, 1]], [[1, 0]]], "V": [[[1, 0]], [[0, 1]]]},
        {"U": [[], []], "V": [[], []]},
        {"U": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "V": [[[1, 0]], [[0, 1]]]},
    ], ids=["top-level-number", "row-not-a-list", "ragged-rows", "zero-width", "different-widths"])
    def test_malformed_probe_file_is_usage_error(self, doc, tmp_path, capsys):
        path = tmp_path / "probes.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run_command(["block-pair", SS_2X2, "--center", "1,0", "--radius", "0.5",
                            "--probe-file", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_command(["count", data_file("ss_2x2.json"), "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert run_command(["count", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("argv, status", [
        (["count", data_file("ss_2x2.json"), "--center", "1,0", "--radius", "0.5"], 0),
        (["count", "/nonexistent.json"], 1),
    ], ids=["ok", "usage"])
    def test_main_exits_with_the_command_status(self, monkeypatch, argv, status):
        # the console-script entry point reads sys.argv and exits with
        # run_command's status, its output on the real streams
        monkeypatch.setattr(sys, "argv", ["invpairs", *argv])
        with CliRunner().isolation() as streams:
            with pytest.raises(SystemExit) as exit_info:
                main()
            out, err = streams[0].getvalue().decode(), streams[1].getvalue().decode()
        assert exit_info.value.code == status
        if status == 0:
            assert json.loads(out)["count"] == 3
        else:
            assert out == "" and err.startswith("error:")

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert run_command(["count", str(path)]) == 1

    def test_eigenvalue_on_contour_is_numerical_failure(self, capsys):
        code = run_command([
            "count", data_file("ss_2x2.json"), "--center", "0.5,0", "--radius", "0.5",
            "--nodes", "8",
        ])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_oversized_m_is_numerical_failure(self, capsys):
        code = run_command([
            "pair", data_file("ss_2x2.json"), "--center", "1,0", "--radius", "0.5",
            "--m", "4", "--probe-file", probe_file("ss_2x2.json"),
        ])
        assert code == 2

    def test_verification_mismatch_maps_to_three(self, monkeypatch, capsys):
        import invpairs.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_golden_checks", lambda: (2, [("x", "FAIL bad")]))
        assert run_command(["bench", "--verify"]) == 3
        assert "verification failed" in capsys.readouterr().err


class TestBench:
    def test_golden_checks_all_pass(self):
        failures, lines = run_golden_checks()
        assert failures == 0
        assert len(lines) >= 12

    def test_bench_verify_exit_zero(self, capsys):
        assert run_command(["bench", "--verify"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all(c["status"] == "ok" for c in out["checks"])

    def test_bench_seed7_line_search_wins(self, capsys):
        code = run_command(["bench", "--seed", "7"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        recs = out["records"]
        assert len(recs) >= 5
        wins = sum(
            1 for r in recs
            if r["line_search_iterations"] <= r["newton_iterations"]
        )
        assert wins / len(recs) >= 0.8
        assert all(r["newton_converged"] and r["line_search_converged"] for r in recs)

    def test_bench_csv_has_times(self, capsys):
        code = run_command(["bench", "--seed", "7", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "newton_time" in lines[0]
        assert len(lines) >= 6



def _expected_doc(fixture):
    path = importlib.resources.files("invpairs") / "data" / "expected" / f"{fixture}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _inc(container, key):
    """Add 1 to container[key]: a count, a multiplicity, or the real part of an [re, im] pair."""
    container[key] += 1


# (fixture, check name, perturbation of the expected value): every check kind
# of data/expected, and an unknown kind
_PERTURBED = {
    "moments+1": ("diag_4x4", "golden_moments", lambda c: _inc(c["expected"][0], 0)),
    "count+1": ("ss_2x2", "count", lambda c: _inc(c, "expected")),
    "companion_entry+1": ("diag_4x4", "companion", lambda c: _inc(c["expected"][-1], 0)),
    "cluster_multiplicity+1": ("diag_4x4", "clusters", lambda c: _inc(c["expected"][0], 1)),
    "pair_X_entry+1": ("ss_2x2", "golden_pair", lambda c: _inc(c["X"][0][0], 0)),
    "pair_S_entry+1": ("ss_2x2", "golden_pair", lambda c: _inc(c["S"][1][1], 0)),
    "hankel_rank+1": ("multi_3x3", "H0_5x5_rank_3", lambda c: _inc(c, "expected")),
    "block_moment_entry+1": ("multi_3x3", "block_moments", lambda c: _inc(c["expected"][1][0][1], 0)),
    "block_pair_T_entry+1": ("multi_3x3", "block_pair_printed_probes", lambda c: _inc(c["T"][0][0], 0)),
    "block_pair_Y_entry+1": ("multi_3x3", "block_pair_yhat_probes", lambda c: _inc(c["Y"][2][1], 0)),
    "block_pair_multiplicity+1": ("multi_3x3", "block_pair_printed_probes",
                                  lambda c: _inc(c["eig_clusters"][0], 1)),
    "solvent_entry+1": ("quad_solvents_2x2", "five_solvents", lambda c: _inc(c["expected"][2][0][0], 0)),
    "solvent_dropped": ("quad_solvents_2x2", "five_solvents", lambda c: c["expected"].pop()),
    "rejected_subset_dropped": ("quad_solvents_2x2", "five_solvents", lambda c: c["rejected"].pop()),
    "branch_kind_renamed": ("infinite_family_3x3_triangular", "two_branches",
                            lambda c: c["expected"][1].update(kind="unique")),
    "branch_direction_entry+1": ("infinite_family_3x3_triangular", "two_branches",
                                 lambda c: _inc(c["expected"][1]["directions"][0][0][1], 0)),
    "unknown_kind": ("ss_2x2", "count", lambda c: c.update(kind="no_such_kind")),
}


class TestGoldenCheckFailures:
    """Each check kind of the golden verifier fails when its expected value is wrong."""

    @pytest.mark.parametrize("case", sorted(_PERTURBED))
    def test_perturbed_expectation_fails(self, case):
        fixture, name, perturb = _PERTURBED[case]
        check = next(c for c in _expected_doc(fixture)["checks"] if c["name"] == name)
        P = problems.PROBLEMS[fixture]()
        assert _run_single_check(P, fixture, check)[1] == "ok"
        bad = copy.deepcopy(check)
        perturb(bad)
        assert _run_single_check(P, fixture, bad)[1].startswith("FAIL")

    def test_every_bundled_kind_is_perturbed(self):
        expected_dir = importlib.resources.files("invpairs") / "data" / "expected"
        fixtures = [p.name[:-5] for p in expected_dir.iterdir() if p.name.endswith(".json")]
        kinds = {c["kind"] for f in fixtures for c in _expected_doc(f)["checks"]}
        assert len(kinds) == 10
        covered = {c["kind"] for fixture, name, _ in _PERTURBED.values()
                   for c in _expected_doc(fixture)["checks"] if c["name"] == name}
        assert covered == kinds
