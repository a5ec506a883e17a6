"""End-to-end CLI runs: outputs, formats, determinism, and exit codes."""
import csv
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qboson import expand_potential_zsum, load_hamiltonian_spec
from qboson.cli import build_parser, main

ANHARMONIC = {
    "bosons": 1, "qubits_per_boson": 3, "radius": 2.0,
    "potential": [{"coeff": 1.0, "exponents": [2]}, {"coeff": 1.0, "exponents": [4]}],
}
FOCK_DOUBLE_WELL = {
    "bosons": 1, "qubits_per_boson": 2, "basis": "fock",
    "potential": [{"coeff": 1.0, "exponents": [0]}, {"coeff": 2.0, "exponents": [1]},
                  {"coeff": 3.0, "exponents": [2]}, {"coeff": 2.0, "exponents": [3]},
                  {"coeff": 1.0, "exponents": [4]}],
}


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestTable1:
    def test_small_range_csv(self, capsys):
        code, out = run_cli(["table1", "--q-max", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "Q,Lambda,n_pauli_x,n_pauli_p,formula,match"
        assert lines[5].split(",") == ["5", "32", "80", "80", "80", "True"]

    def test_json_format(self, capsys):
        code, out = run_cli(["table1", "--q-max", "3", "--format", "json"], capsys)
        rows = json.loads(out)["rows"]
        assert [r["n_pauli_x"] for r in rows] == [1, 4, 12]
        assert all(r["match"] for r in rows)

    def test_deterministic_output(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["table1", "--q-max", "4", "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_q_max_capped_before_the_first_row(self, capsys, monkeypatch):
        # Q 2**Q sums pass EXPANSION_STRING_CAP = 2**25 from Q=21 on
        from qboson import cli

        class RowStarted(Exception):
            pass

        def row_started(*args):
            raise RowStarted
        monkeypatch.setattr(cli, "fock_x", row_started)
        assert main(["table1", "--q-max", "21"]) == 3
        err = capsys.readouterr().err
        assert all(w in err for w in ("--q-max 21", "21 * 2**21 sums", "33554432")), err
        assert main(["table1", "--q-max", str(10 ** 12)]) == 3  # forms no 2**(10**12)
        with pytest.raises(RowStarted):  # Q=20 is admitted
            main(["table1", "--q-max", "20"])


class TestCount:
    def test_coordinate_raw_counts(self, spec_file, capsys):
        path = spec_file({**ANHARMONIC, "potential": [{"coeff": 1.0, "exponents": [4]}]})
        code, out = run_cli(["count", path], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "3" and row[4] == "81"  # raw = Q^4

    def test_fock_sweep_increasing(self, spec_file, capsys):
        path = spec_file(FOCK_DOUBLE_WELL)
        code, out = run_cli(["count", path, "--q-min", "2", "--q-max", "6",
                             "--format", "json"], capsys)
        assert code == 0
        ns = [r["n_pauli"] for r in json.loads(out)["rows"]]
        assert ns == sorted(ns) and len(set(ns)) == len(ns)
        assert ns[0] == 9

    def test_fock_counts_at_tol(self, spec_file, capsys):
        # the butterfly already prunes at --tol, so pruning again drops nothing
        path = spec_file(FOCK_DOUBLE_WELL)
        for tol in ("1e-12", "0"):
            code, out = run_cli(["count", path, "--q-max", "4", "--tol", tol], capsys)
            lines = out.strip().splitlines()
            assert lines[0] == ("Q,basis,n_pauli,n_nontrivial,raw_strings,census,"
                                "n_pruned,dropped_l1")
            for line in lines[1:]:
                row = line.split(",")
                assert row[6] == row[2] and row[7] == "0"

    def test_fock_zero_tol_pins_addition_order(self, spec_file, capsys):
        # --tol 0 counts the rounding residues of cancelled strings, so these two
        # values pin the order of the additions in the operator build and in the
        # butterfly (README); the default tolerance counts the same in any order
        path = spec_file({**FOCK_DOUBLE_WELL, "qubits_per_boson": 11, "potential": [
            {"coeff": 1.0, "exponents": [2]}, {"coeff": 1.0, "exponents": [4]}]})
        for tol, expected in (("0", 36857), ("1e-12", 15291)):
            code, out = run_cli(["count", path, "--tol", tol, "--format", "json"], capsys)
            assert code == 0 and json.loads(out)["rows"][0]["n_pauli"] == expected

    @pytest.mark.parametrize("doc", [
        {"potential": [{"coeff": c, "exponents": [2]}]} for c in (1e-15, 1.0, 1e15)] + [
        {"potential": [{"coeff": 1.0, "exponents": [2]}], "fock": {"mass": m}}
        for m in (1e-20, 1e20)])
    def test_fock_count_does_not_depend_on_scale(self, doc, spec_file, capsys):
        # x**2 at Q=4 has 39 strings at any coefficient or mass: --tol, relative
        # to the largest coefficient, is the only magnitude cut
        path = spec_file({**FOCK_DOUBLE_WELL, "qubits_per_boson": 4, **doc})
        code, out = run_cli(["count", path], capsys)
        assert code == 0
        assert out.strip().splitlines()[1] == "4,fock,39,38,,0:1;1:4;2:11;3:15;4:8,39,0"

    @pytest.mark.parametrize("q", [1, 4, 8])
    def test_fock_x_count_at_heavy_mass(self, q, spec_file, capsys):
        # x alone counts Q 2**(Q-1) strings at mass 1e30, as in table1
        path = spec_file({**FOCK_DOUBLE_WELL, "qubits_per_boson": q, "fock": {"mass": 1e30},
                          "potential": [{"coeff": 1.0, "exponents": [1]}]})
        code, out = run_cli(["count", path, "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["rows"][0]["n_pauli"] == q << (q - 1)

    def test_fock_subnormal_constant_counts_one_string(self, spec_file, capsys):
        # 5e-324 times the identity is the identity string at 5e-324: the butterfly
        # divides by 16 after summing, so no entry rounds away first
        path = spec_file({**FOCK_DOUBLE_WELL, "qubits_per_boson": 4,
                          "potential": [{"coeff": 5e-324, "exponents": [0]}]})
        code, out = run_cli(["count", path], capsys)
        assert code == 0 and out.strip().splitlines()[1] == "4,fock,1,0,,0:1,1,0"

    def test_fock_band_cap_exit_3(self, spec_file, capsys, monkeypatch):
        # the cap is checked before any band is allocated: lowered here, so the
        # refused case stays small (x**4 at Q=4: 5 bands of 16 x 11 = 880 entries)
        from qboson import hamiltonian
        monkeypatch.setattr(hamiltonian, "FOCK_BAND_ENTRY_CAP", 879)
        doc = {**FOCK_DOUBLE_WELL, "qubits_per_boson": 4}
        assert main(["count", spec_file(doc)]) == 3
        err = capsys.readouterr().err
        assert all(w in err for w in ("degree 4", "qubits_per_boson 4", "879")), err
        monkeypatch.setattr(hamiltonian, "FOCK_BAND_ENTRY_CAP", 880)
        assert main(["count", spec_file(doc)]) == 0

    def test_fock_two_boson_kron_cap_exit_3(self, spec_file, capsys, monkeypatch):
        # x0**60 x1**60 at Q=7 would form 35,378,704 entries; refused before the
        # first Kronecker product
        from qboson import SparseOperator
        monkeypatch.setattr(SparseOperator, "kron",
                            lambda *a: pytest.fail("a product formed before the cap"))
        doc = {"bosons": 2, "qubits_per_boson": 7, "basis": "fock",
               "potential": [{"coeff": 1.0, "exponents": [60, 60]}]}
        assert main(["count", spec_file(doc)]) == 3
        err = capsys.readouterr().err
        assert all(w in err for w in ("2 bosons", "degree 60", "qubits_per_boson 7",
                                      "35378704 entries")), err

    def test_coordinate_pruned_columns(self, spec_file, capsys):
        path = spec_file({**ANHARMONIC, "qubits_per_boson": 14,
                          "potential": [{"coeff": 1.0, "exponents": [4]}]})
        code, out = run_cli(["count", path, "--tol", "1e-6", "--format", "json"], capsys)
        row = json.loads(out)["rows"][0]
        assert row["n_pauli"] == 1093 and row["n_pruned"] < 1093
        psum = expand_potential_zsum(load_hamiltonian_spec(path))
        kept = {(t.x_mask, t.z_mask) for t in psum.prune(1e-6)}
        dropped = sum(abs(t.coefficient) for t in psum if (t.x_mask, t.z_mask) not in kept)
        assert row["n_pruned"] == len(kept) and row["dropped_l1"] == pytest.approx(dropped, rel=1e-12)

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["count", str(bad)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["count", "/nonexistent/spec.json"]) == 2

    def test_unknown_spec_key_exit_2(self, spec_file, capsys):
        path = spec_file({**ANHARMONIC, "potentail": []})
        assert main(["count", path]) == 2
        assert "unknown key 'potentail'" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", [2.0, 1.7])
    @pytest.mark.parametrize("bosons,terms,q_min,q_max,exact", [
        (1, [(1.0, [4])], 12, 17, lambda q: 1 + math.comb(q, 2) + math.comb(q, 4)),
        (1, [(1.0, [2]), (2.0, [4]), (1.0, [6])], 10, 14,
         lambda q: 1 + math.comb(q, 2) + math.comb(q, 4) + math.comb(q, 6)),
        # (x0^2 + x1^2)/2 + (x0^2 + x1^2)^2/4: one-boson weights 0, 2, 4 on either
        # boson, plus weight 2 on both at once
        (2, [(0.5, [2, 0]), (0.5, [0, 2]), (0.25, [4, 0]), (0.25, [0, 4]), (0.5, [2, 2])],
         10, 12, lambda q: 1 + 2 * (math.comb(q, 2) + math.comb(q, 4)) + math.comb(q, 2) ** 2),
    ])
    def test_zero_tol_counts_exact_support(self, bosons, terms, q_min, q_max, exact, radius,
                                           spec_file, capsys):
        path = spec_file({"bosons": bosons, "qubits_per_boson": q_min, "radius": radius,
                          "potential": [{"coeff": c, "exponents": e} for c, e in terms]})
        code, out = run_cli(["count", path, "--q-min", str(q_min), "--q-max", str(q_max),
                             "--tol", "0", "--format", "json"], capsys)
        assert code == 0
        assert [r["n_pauli"] for r in json.loads(out)["rows"]] == [
            exact(q) for q in range(q_min, q_max + 1)]


class TestNumericFlags:
    @pytest.mark.parametrize("command", ["table1", "count"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-0.5", "-1e-12", "-2.5E+3",
                                     "abc"])
    def test_bad_tol_exit_2(self, command, tol, spec_file, capsys):
        args = [command] + ([spec_file(FOCK_DOUBLE_WELL)] if command == "count" else [])
        with pytest.raises(SystemExit) as exc:
            main(args + ["--tol", tol])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tol:" in err
        assert tol == "abc" or f"must be a finite number >= 0, got '{tol}'" in err

    @pytest.mark.parametrize("args", [["table1", "--q-max", "0"], ["count", "--q-min", "0"],
                                      ["count", "--q-max", "0"], ["count", "--q-min", "-2"]])
    def test_nonpositive_q_exit_2(self, args, spec_file, capsys):
        if args[0] == "count":
            args = ["count", spec_file(FOCK_DOUBLE_WELL)] + args[1:]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"argument {args[-2]}: must be a positive integer" in capsys.readouterr().err

    def test_reversed_q_range_exit_2(self, spec_file, capsys):
        code = main(["count", spec_file(ANHARMONIC), "--q-min", "5", "--q-max", "3"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "bad Q range [5, 3]" in err

    def test_zero_tol_accepted(self, capsys):
        code, out = run_cli(["table1", "--q-max", "3", "--tol", "0"], capsys)
        assert code == 0 and out.strip().endswith("3,8,12,12,12,True")

    def test_exponent_negative_time_accepted(self, spec_file, capsys):
        path = spec_file(ANHARMONIC)
        outs = [run_cli(["trotter", path, "--time", t, "--steps", "2", "--format", "json"], capsys)
                for t in ("-5e-1", "-0.5")]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and json.loads(outs[0][1])["time"] == -0.5

    @pytest.mark.parametrize("time", [["--time", "inf"], ["--time", "nan"], ["--time", "-inf"],
                                      ["--time", "-NaN"], ["--time=-inf"]])
    def test_non_finite_time_exit_2(self, time, spec_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trotter", spec_file(ANHARMONIC), *time, "--steps", "2"])
        assert exc.value.code == 2
        value = time[-1].removeprefix("--time=")
        assert f"argument --time: must be a finite number, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-3", "2.5"])
    def test_bad_steps_exit_2(self, steps, spec_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trotter", spec_file(ANHARMONIC), "--time", "1", "--steps", steps])
        assert exc.value.code == 2
        assert "argument --steps:" in capsys.readouterr().err


# (series CSV, what the refusal names after the file path)
BAD_SERIES = {
    "short-row": ("Q,n_pauli\n2,4\n3\n", "line 3, column n_pauli: missing cell"),
    "float-cell": ("Q,n_pauli\n2,4\n3,1e400\n",
                   "line 3, column n_pauli: '1e400' is not an integer"),
    "word-cell": ("Q,n_pauli\n2,4\nx,12\n", "line 3, column Q: 'x' is not an integer"),
    "past-float-range": (f"Q,n_pauli\n2,{10**400}\n",
                         f"line 2, column n_pauli: '{10**400}' is past the float range"),
    "q-zero": ("Q,n_pauli\n0,1\n1,4\n2,12\n3,32\n", "Q values must be >= 1"),
    "q-decreasing": ("Q,n_pauli\n3,4\n2,12\n", "Q values must be strictly increasing"),
    "empty": ("", "empty CSV"),
}


class TestFit:
    def test_exact_series(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        rows = ["Q,n_pauli"] + [f"{q},{q * 2 ** (q - 1)}" for q in range(6, 15)]
        csv_path.write_text("\n".join(rows) + "\n")
        code, out = run_cli(["fit", str(csv_path), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["a"] == pytest.approx(math.log(2), rel=1e-9)
        assert doc["residual_rms"] < 1e-12

    def test_count_output_feeds_fit(self, spec_file, tmp_path, capsys):
        path = spec_file(FOCK_DOUBLE_WELL)
        series_path = tmp_path / "series.csv"
        assert main(["count", path, "--q-min", "2", "--q-max", "6",
                     "--out", str(series_path)]) == 0
        code, out = run_cli(["fit", str(series_path), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["rows_fitted"] == 5

    def test_too_few_rows_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "short.csv"
        csv_path.write_text("Q,n_pauli\n2,4\n3,12\n4,32\n")
        assert main(["fit", str(csv_path)]) == 2

    @pytest.mark.parametrize("name", sorted(BAD_SERIES))
    def test_malformed_series_named(self, name, tmp_path, capsys):
        body, named = BAD_SERIES[name]
        csv_path = tmp_path / "series.csv"
        csv_path.write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", str(csv_path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"error: {csv_path}: ") and named in err

    def test_missing_series_named(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        assert main(["fit", str(path)]) == 2
        assert f"cannot read {path}" in capsys.readouterr().err

    def test_no_tol_option(self, tmp_path, capsys):
        # fit has nothing to prune or verify: --tol is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(tmp_path / "series.csv"), "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


# trotter --verify outputs recorded while the reference propagator was one eigh of
# the whole matrix; the cases are even in each boson, even only overall, odd, and
# one at an odd step count (no halving check). The full-register cases (Q = 7 and 9,
# past WINDOW_QUBIT_CAP) were recorded while QFT layers past the cap ran through a
# separate gate interpreter; one of them raises the step by repeated squaring
TROTTER_RECORDED = json.loads(
    (Path(__file__).parent / "trotter_verify_reference.json").read_text())
VERIFY_ERRORS = ("trotter_error", "trotter_error_half_steps", "halving_ratio")


class TestTrotterOutputsRecorded:
    @pytest.mark.parametrize("name", sorted(TROTTER_RECORDED))
    def test_report_unchanged_errors_to_1e_12(self, name, tmp_path, monkeypatch, capsys):
        case = TROTTER_RECORDED[name]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(json.dumps(case["spec"]))
        outs = {}
        for fmt in ("json", "csv"):
            code, outs[fmt] = run_cli(["trotter", "spec.json", *case["flags"], "--verify",
                                       "--format", fmt], capsys)
            assert code == 0
        got, want = json.loads(outs["json"]), case["json"]
        assert got.keys() == want.keys()
        for key in want:
            if key in VERIFY_ERRORS:
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0), key
            else:
                assert got[key] == want[key], key
        # CSV prints 12 significant digits: its verify cells agree to that print
        lines = outs["csv"].splitlines()
        assert len(lines) == len(case["csv"])
        for line, expected in zip(lines, case["csv"]):
            if not expected.startswith("verify,"):
                assert line == expected
                continue
            (head, value), (expected_head, expected_value) = (
                row.rsplit(",", 1) for row in (line, expected))
            assert head == expected_head
            assert float(value) == pytest.approx(float(expected_value), rel=1e-11, abs=0)


class TestTrotter:
    def test_report_and_circuit_file(self, spec_file, tmp_path, capsys):
        path = spec_file(ANHARMONIC)
        circ_path = tmp_path / "circuit.txt"
        code, out = run_cli(["trotter", path, "--time", "1.0", "--steps", "4",
                             "--circuit-out", str(circ_path), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["steps"] == 4
        assert set(doc["layers"]) == {"potential", "qft", "kinetic", "inverse_qft"}
        text = circ_path.read_text()
        assert text.startswith("# circuit n_qubits=3")

    def test_steps_capped_before_the_gate_list(self, spec_file, capsys):
        # a billion steps of the step's gates would be a list of 10**9 x len(step)
        assert main(["trotter", spec_file(ANHARMONIC), "--time", "1",
                     "--steps", "1000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1000000000 Trotter steps of" in captured.err and "33554432" in captured.err

    def test_verify_prints_halving_ratio(self, spec_file, capsys):
        path = spec_file(ANHARMONIC)
        code, out = run_cli(["trotter", path, "--time", "1.0", "--steps", "16",
                             "--verify", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert 0.4 <= doc["halving_ratio"] <= 0.6
        assert doc["trotter_error"] < doc["trotter_error_half_steps"]

    def test_verify_builds_one_reference(self, spec_file, capsys, monkeypatch):
        import qboson.simulate as simulate
        calls = []
        original = simulate.exact_propagator

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(simulate, "exact_propagator", counted)
        code, out = run_cli(["trotter", spec_file(ANHARMONIC), "--time", "0.5",
                             "--steps", "4", "--verify", "--format", "json"], capsys)
        assert code == 0 and calls == [0.5]
        assert "halving_ratio" in json.loads(out)

    def test_verify_builds_the_step_once(self, spec_file, capsys, monkeypatch):
        # both errors reuse the report's first step: N/2 steps double its angles
        import qboson.circuits as circuits
        from qboson.simulate import trotter_error
        dts = []
        original = circuits.trotter_step

        def counted(spec, dt, *args):
            dts.append(dt)
            return original(spec, dt, *args)

        path = spec_file(ANHARMONIC)
        monkeypatch.setattr(circuits, "trotter_step", counted)
        code, out = run_cli(["trotter", path, "--time", "0.5", "--steps", "4", "--verify",
                             "--format", "json"], capsys)
        assert code == 0 and dts == [0.125]
        doc = json.loads(out)
        spec = load_hamiltonian_spec(path)
        assert doc["trotter_error"] == trotter_error(spec, 0.5, 4)
        assert doc["trotter_error_half_steps"] == trotter_error(spec, 0.5, 2)

    def test_verify_cap_exit_3(self, spec_file, capsys):
        doc = dict(ANHARMONIC, qubits_per_boson=13,
                   potential=[{"coeff": 1.0, "exponents": [2]}])
        code = main(["trotter", spec_file(doc), "--time", "1", "--steps", "2", "--verify"])
        assert code == 3
        err = capsys.readouterr().err
        assert "capped at 12 qubits" in err
        assert all(word in err for word in ("--verify", "spec.json", "got 13")), err

    def test_verify_tol_exit_4(self, spec_file, capsys):
        path = spec_file(ANHARMONIC)
        code = main(["trotter", path, "--time", "1.0", "--steps", "4",
                     "--verify", "--tol", "1e-12"])
        assert code == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_verify_failure_report_follows_format(self, fmt, spec_file, capsys):
        # the exit-4 report is the full report in --format, verify rows included
        args = ["trotter", spec_file(ANHARMONIC), "--time", "1.0", "--steps", "4",
                "--verify", "--format", fmt]
        code, passed = run_cli(args, capsys)
        assert code == 0
        code = main(args + ["--tol", "1e-9"])
        failed, err = capsys.readouterr()
        assert code == 4 and failed == passed and "exceeds tol" in err
        if fmt == "json":
            assert {"trotter_error", "halving_ratio"} <= set(json.loads(failed))
        else:
            rows = list(csv.reader(failed.splitlines()))
            assert rows[0] == ["section", "name", "value"]
            assert [r[1] for r in rows if r[0] == "verify"] == [
                "trotter_error:4", "trotter_error:2", "halving_ratio:"]

    def test_fock_spec_rejected(self, spec_file, capsys):
        path = spec_file(FOCK_DOUBLE_WELL)
        code = main(["trotter", path, "--time", "1.0", "--steps", "2"])
        assert code == 2  # named as the basis, not as the missing radius
        err = capsys.readouterr().err
        assert "basis 'fock'" in err and "radius" not in err

    @pytest.mark.parametrize("args", [["trotter", "--time", "1.0", "--steps", "2"],
                                      ["blockenc"], ["blockenc", "--verify"]])
    def test_fock_spec_with_radius_rejected(self, args, spec_file, capsys):
        # a radius would let the coordinate route run; it must not stand in for Fock
        path = spec_file(dict(FOCK_DOUBLE_WELL, radius=2.0))
        code = main([args[0], path, *args[1:]])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "'fock'" in err


class TestBlockenc:
    def test_report(self, spec_file, capsys):
        path = spec_file(ANHARMONIC)
        code, out = run_cli(["blockenc", path, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["ancilla_count"] == 3
        assert doc["terms_potential"] + doc["terms_kinetic"] == doc["n_terms"]
        assert doc["lambda"] > 0

    def test_verify_passes(self, spec_file, capsys):
        path = spec_file(ANHARMONIC)
        code, out = run_cli(["blockenc", path, "--verify", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["verify_error"] < 1e-10

    def test_verify_fail_exit_4(self, spec_file, capsys):
        path = spec_file(ANHARMONIC)
        assert main(["blockenc", path, "--verify", "--tol", "1e-18"]) == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_verify_failure_report_follows_format(self, fmt, spec_file, capsys):
        args = ["blockenc", spec_file(ANHARMONIC), "--verify", "--format", fmt]
        code, passed = run_cli(args, capsys)
        assert code == 0
        code, failed = run_cli(args + ["--tol", "1e-18"], capsys)
        assert code == 4 and failed == passed
        if fmt == "json":
            assert json.loads(failed)["verify_error"] > 1e-18
        else:
            rows = dict(csv.reader(failed.splitlines()))
            assert rows["name"] == "value" and float(rows["verify_error"]) > 1e-18

    def test_report_builds_no_select(self, spec_file, capsys):
        # B=2 Q=5: 10 system qubits and 8 ancillas, each register within the cap
        # that only --verify needs; at Q=7 the 14 system qubits are past it
        def spec(q):
            return spec_file(dict(ANHARMONIC, bosons=2, qubits_per_boson=q, potential=[
                {"coeff": 1.0, "exponents": [2, 0]}, {"coeff": 1.0, "exponents": [0, 2]},
                {"coeff": 0.5, "exponents": [2, 2]}, {"coeff": 1.0, "exponents": [4, 0]}]))
        path = spec(5)
        code, out = run_cli(["blockenc", path, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert [doc[k] for k in ("n_terms", "ancilla_count", "system_qubits",
                                 "terms_potential", "terms_kinetic")] == [147, 8, 10, 126, 21]
        code, out = run_cli(["blockenc", path, "--verify", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["verify_error"] <= 1e-10
        assert main(["blockenc", spec(7), "--verify"]) == 3
        assert "capped at 12 system qubits, got 14" in capsys.readouterr().err

    def test_report_past_64_qubits(self, spec_file, capsys):
        # x_a**4 on each of 3 bosons at Q=22: 66 system qubits, two mask words per string
        path = spec_file(dict(ANHARMONIC, bosons=3, qubits_per_boson=22, potential=[
            {"coeff": 1.0, "exponents": [4 * (b == a) for b in range(3)]} for a in range(3)]))
        code, out = run_cli(["blockenc", path, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert [doc[k] for k in ("n_terms", "ancilla_count", "system_qubits", "terms_potential",
                                 "terms_kinetic")] == [23333, 15, 66, 22639, 694]
        assert doc["lambda"] == 16277609439096.596  # the sum in plan order, bit for bit


# specs off the coordinate-qft + momentum-basis-diagonal route, radius or not
OFF_ROUTE = {
    "coordinate-finite-difference": dict(ANHARMONIC, kinetic_scheme="finite-difference-open"),
    "fock-finite-difference": dict(ANHARMONIC, basis="fock",
                                   kinetic_scheme="finite-difference-open"),
    "fock-with-radius": dict(FOCK_DOUBLE_WELL, radius=2.0),
    "fock": FOCK_DOUBLE_WELL,
}
# (spec, subcommands): Z-sum coefficients past the float range
OVERFLOW = {
    "x8-radius-1e300": (dict(ANHARMONIC, radius=1e300,
                             potential=[{"coeff": 1.0, "exponents": [8]}]),
                        ["count", "trotter", "blockenc", "blockenc --verify"]),
    # the momentum grid's spacing overflows the kinetic term
    "radius-1e-300": (dict(ANHARMONIC, radius=1e-300),
                      ["trotter", "blockenc", "blockenc --verify"]),
    "coeff-1e305": (dict(ANHARMONIC, radius=10.0,
                         potential=[{"coeff": 1e305, "exponents": [4]}]),
                    ["count", "trotter", "blockenc", "blockenc --verify"]),
}
X_AT_1E200 = dict(ANHARMONIC, radius=1e200, potential=[{"coeff": 1.0, "exponents": [1]}])
# (spec, argv with the spec path left out, words the refusal names)
COERCED = {
    "time-overflows-angles": (dict(ANHARMONIC, potential=[{"coeff": 1.0, "exponents": [4]}]),
                              ["trotter", "--time", "1e308", "--steps", "2"],
                              ["--time 1e+308", "--steps 2", "spec.json"]),
    # the N-step angles are finite, the doubled ones of the N/2-step check are not
    "time-overflows-doubled-angles": (
        dict(ANHARMONIC, potential=[{"coeff": 1.0, "exponents": [4]}]),
        ["trotter", "--time", "1.2e307", "--steps", "2", "--verify"],
        ["--time 1.2e+307", "--steps 2", "spec.json", "doubled"]),
    "fock-term-overflows": ({"bosons": 1, "qubits_per_boson": 10, "basis": "fock",
                             "potential": [{"coeff": 1.0, "exponents": [2]},
                                           {"coeff": 1e305, "exponents": [4]}]},
                            ["count"], ["potential term 1", "qubits_per_boson 10"]),
    "fock-two-boson-term-overflows": (
        {"bosons": 2, "qubits_per_boson": 6, "basis": "fock",
         "potential": [{"coeff": 1e306, "exponents": [4, 4]}]},
        ["count"], ["potential term 0", "qubits_per_boson 6"]),
    "zsum-underflows": (dict(ANHARMONIC, qubits_per_boson=4, radius=1e-300,
                             potential=[{"coeff": 1.0, "exponents": [4]}]),
                        ["count"], ["underflows", "radius 1e-300", "degree 4"]),
    # the whole-term scale is finite, the weight-4 strings round to 0.0
    "zsum-strings-underflow": (dict(ANHARMONIC, qubits_per_boson=6, radius=1e-80,
                                    potential=[{"coeff": 1.0, "exponents": [4]}]),
                               ["count"],
                               ["underflows", "radius 1e-80", "degree 4", "qubits_per_boson 6"]),
    # the angles are finite, the reference's E t is not
    "time-overflows-propagator": (
        dict(ANHARMONIC, potential=[{"coeff": 1.0, "exponents": [4]}]),
        ["trotter", "--time", "1e307", "--steps", "2", "--verify"],
        ["--time 1e+307", "--steps 2", "spec.json", "propagator"]),
    "time-overflows-layer-phases": (
        dict(ANHARMONIC, potential=[{"coeff": 1.0, "exponents": [4]}]),
        ["trotter", "--time", "2.7e307", "--steps", "2", "--verify"],
        ["--time 2.7e+307", "--steps 2", "spec.json",
         "kinetic layer's phase angles are not finite"]),
    # a potential of degree 1 stays finite where the kinetic term vanishes
    "kinetic-vanishes-trotter": (X_AT_1E200, ["trotter", "--time", "1", "--steps", "2"],
                                 ["kinetic term", "underflows", "radius 1e+200"]),
    "kinetic-vanishes-blockenc": (X_AT_1E200, ["blockenc"],
                                  ["kinetic term", "underflows", "radius 1e+200"]),
    # a per-boson degree whose Z-sum tables need 171!, past the float range
    **{f"degree-170-{argv[0]}": (dict(ANHARMONIC, potential=[{"coeff": 1.0, "exponents": [170]}]),
                                 argv, ["degree 170", "qubits_per_boson 3"])
       for argv in (["count"], ["trotter", "--time", "0.1", "--steps", "2"], ["blockenc"])},
    # a Fock product that leaves the normal float range: x**3 of x**4 rounds to
    # 0.0 at mass 1e300, and 1e-320 x**4 is subnormal, too few bits for the
    # butterfly's sums to keep every string
    "fock-power-underflows": (dict(FOCK_DOUBLE_WELL, qubits_per_boson=4, fock={"mass": 1e300},
                                   potential=[{"coeff": 1.0, "exponents": [4]}]),
                              ["count"], ["power 3 of x (potential term 0)",
                                          "fock: mass 1e+300, frequency 1.0", "underflows"]),
    "fock-term-underflows": (dict(FOCK_DOUBLE_WELL, qubits_per_boson=4,
                                  potential=[{"coeff": 1.0, "exponents": [2]},
                                             {"coeff": 1e-320, "exponents": [4]}]),
                             ["count"], ["potential term 1", "fock: mass 1.0, frequency 1.0",
                                         "underflows"]),
    "fock-two-boson-term-underflows": (
        {"bosons": 2, "qubits_per_boson": 2, "basis": "fock",
         "potential": [{"coeff": 1.0, "exponents": [2, 0]},
                       {"coeff": 5e-308, "exponents": [2, 2]}]},  # normal until the 2nd kron
        ["count"], ["potential term 1", "fock: mass", "underflows"]),
    # refused by the spec reader
    "top-level-array": ([ANHARMONIC], ["count"], ["spec.json", "top-level JSON object"]),
    "negative-exponent": (dict(ANHARMONIC, potential=[{"coeff": 1.0, "exponents": [-2]}]),
                          ["count"], ["potential term 0", "nonnegative"]),
    "finite-difference-without-radius": (
        dict(FOCK_DOUBLE_WELL, kinetic_scheme="finite-difference-open"), ["count"],
        ["finite-difference", "radius"]),
}
# (fock parameters, degree of the potential): x would divide by zero, vanish, or
# have a power past the float range
BAD_FOCK = {
    "zero-scale": ({"mass": 1e-320, "frequency": 1e-10}, 4),
    "infinite-product": ({"mass": 1e300, "frequency": 1e300}, 4),
    "power-overflows": ({"mass": 1e-300, "frequency": 1e-10}, 8),
}


def run_subcommand(command, path):
    """``command`` is a subcommand with its flags; trotter gets a time and steps."""
    name, *flags = command.split()
    if name == "trotter":
        flags += ["--time", "1.0", "--steps", "2"]
    return main([name, path, *flags])


class TestRefusals:
    @pytest.mark.parametrize("name", sorted(OFF_ROUTE))
    def test_off_route_spec_one_message(self, name, spec_file, capsys):
        # trotter, blockenc and blockenc --verify refuse in the same words, naming
        # the spec's basis and scheme and the pair the route takes; count still runs
        doc = OFF_ROUTE[name]
        path = spec_file(doc)
        messages = set()
        for command in ["trotter", "blockenc", "blockenc --verify"]:
            code = run_subcommand(command, path)
            out, err = capsys.readouterr()
            assert code == 2 and out == ""
            messages.add(err)
        (message,) = messages
        assert ("basis 'coordinate-qft' with kinetic scheme 'momentum-basis-diagonal' only"
                in message)
        assert (f"not basis {doc.get('basis', 'coordinate-qft')!r} with kinetic scheme "
                f"{doc.get('kinetic_scheme', 'momentum-basis-diagonal')!r}") in message
        code, out = run_cli(["count", path], capsys)
        assert code == 0 and len(out.splitlines()) == 2

    @pytest.mark.parametrize("name", sorted(OVERFLOW))
    def test_overflowing_zsum_exit_2(self, name, spec_file, capsys):
        doc, commands = OVERFLOW[name]
        path = spec_file(doc)
        for command in commands:
            code = run_subcommand(command, path)
            out, err = capsys.readouterr()
            assert code == 2 and out == "", command
            assert "overflows at radius" in err and "qubits_per_boson 3" in err, command
            assert "degree" in err

    @pytest.mark.parametrize("name", sorted(COERCED))
    def test_coerced_input_exit_2(self, name, spec_file, capsys):
        # each exits 2 naming its input, with no warning; all but the spec reader's
        # cases once ran to exit 0, or to exit 2 with a RuntimeWarning and a message
        # that named no input
        doc, argv, named = COERCED[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([argv[0], spec_file(doc), *argv[1:]])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert all(word in err for word in named), err

    @pytest.mark.parametrize("name", sorted(BAD_FOCK))
    def test_bad_fock_parameters_exit_2(self, name, spec_file, capsys):
        params, degree = BAD_FOCK[name]
        doc = dict(FOCK_DOUBLE_WELL, fock=params,
                   potential=[{"coeff": 1.0, "exponents": [d]} for d in range(0, degree + 1, 2)])
        code = main(["count", spec_file(doc)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "fock: mass" in err and "frequency" in err

    @pytest.mark.parametrize("command,checker", [("trotter --verify --tol 1", "trotter_error"),
                                                 ("blockenc --verify", "verify_block_encoding")])
    def test_nan_verification_error_exit_4(self, command, checker, spec_file, capsys,
                                           monkeypatch):
        from qboson import cli
        monkeypatch.setattr(cli, checker, lambda *args, **kwargs: float("nan"))
        assert run_subcommand(command, spec_file(ANHARMONIC)) == 4
        assert "nan exceeds tol" in capsys.readouterr().err


def many_bosons(bosons, q=1):
    """x_0**2 on the first of ``bosons`` bosons; one exponent per boson."""
    return {"bosons": bosons, "qubits_per_boson": q, "radius": 2.0,
            "potential": [{"coeff": 1.0, "exponents": [2] + [0] * (bosons - 1)}]}


def chain(bosons, q):
    """The coupled chain sum_i (1.5 x_i**2 + x_i**4 / 4) - sum_i x_i x_(i+1)."""
    def term(coeff, powers):
        exponents = [0] * bosons
        for site, power in powers:
            exponents[site] = power
        return {"coeff": coeff, "exponents": exponents}
    potential = [term(c, [(i, d)]) for i in range(bosons) for c, d in ((1.5, 2), (0.25, 4))]
    potential += [term(-1.0, [(i, 1), (i + 1, 1)]) for i in range(bosons - 1)]
    return {"bosons": bosons, "qubits_per_boson": q, "radius": 2.0, "potential": potential}


class TestManyBosons:
    def test_refused_before_the_tables(self, spec_file, capsys, monkeypatch):
        # 50,000 qubits need 50,000 masks of 782 words, and the kinetic term of 6,000
        # bosons 6,000 exponent tuples of 6,000 entries: both pass EXPANSION_STRING_CAP
        from qboson import hamiltonian, pauli
        for owner in (hamiltonian, pauli):
            monkeypatch.setattr(owner, "single_qubit_words",
                                lambda n: pytest.fail("a mask table formed before the cap"))
        assert main(["count", spec_file(many_bosons(50_000))]) == 3
        assert "bosons 50000, qubits_per_boson 1" in capsys.readouterr().err
        monkeypatch.setattr(hamiltonian, "_zsum",
                            lambda *a, **k: pytest.fail("a Z-sum formed before the cap"))
        path = spec_file(many_bosons(6000))
        for command in ["trotter", "blockenc"]:
            code, err = run_subcommand(command, path), capsys.readouterr().err
            assert code == 3 and "bosons 6000, qubits_per_boson 1" in err, command

    @pytest.mark.parametrize("command,cap,refusal", [
        ("count", 10, "needs 10 x 1 mask words"),  # 10 qubits, one word per mask
        ("blockenc", 100, "forms 10**2 exponents")])  # 10 tuples of 10 exponents
    def test_cap_boundary(self, command, cap, refusal, spec_file, capsys, monkeypatch):
        from qboson import hamiltonian
        path = spec_file(many_bosons(10))
        monkeypatch.setattr(hamiltonian, "EXPANSION_STRING_CAP", cap)
        assert run_subcommand(command, path) == 0
        monkeypatch.setattr(hamiltonian, "EXPANSION_STRING_CAP", cap - 1)
        assert run_subcommand(command, path) == 3
        assert refusal in capsys.readouterr().err

    def test_large_registers_still_run(self, spec_file, capsys):
        code, out = run_cli(["count", spec_file(many_bosons(20_000))], capsys)
        assert code == 0 and out.splitlines()[1] == "1,coordinate-qft,1,0,1,0:1,1,0"
        path = spec_file(chain(32, 4))  # 128 qubits
        for command in ["count", "trotter", "blockenc"]:
            assert run_subcommand(command, path) == 0, command


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "qboson.cli", "table1", "--q-max", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("1,2,1,1,1,True")

    def test_parser_built_once(self, capsys):
        assert build_parser() is build_parser()
        for _ in range(2):  # a usage error leaves the shared parser as it was
            with pytest.raises(SystemExit) as exc:
                main(["trotter"])
            assert exc.value.code == 2
            assert main(["table1", "--q-max", "1"]) == 0

    def test_usage_error_exit_2(self):
        proc = subprocess.run([sys.executable, "-m", "qboson.cli", "trotter"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
