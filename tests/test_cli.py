"""End-to-end CLI runs: outputs, formats, determinism, and exit codes."""
import json
import math
import subprocess
import sys

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

    def test_verify_cap_exit_3(self, spec_file, capsys):
        doc = dict(ANHARMONIC, qubits_per_boson=13,
                   potential=[{"coeff": 1.0, "exponents": [2]}])
        code = main(["trotter", spec_file(doc), "--time", "1", "--steps", "2", "--verify"])
        assert code == 3
        assert "capped at 12 qubits" in capsys.readouterr().err

    def test_verify_tol_exit_4(self, spec_file, capsys):
        path = spec_file(ANHARMONIC)
        code = main(["trotter", path, "--time", "1.0", "--steps", "4",
                     "--verify", "--tol", "1e-12"])
        assert code == 4

    def test_fock_spec_rejected(self, spec_file, capsys):
        path = spec_file(FOCK_DOUBLE_WELL)
        code = main(["trotter", path, "--time", "1.0", "--steps", "2"])
        assert code == 2  # no radius, coordinate pathway unavailable


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

    def test_report_builds_no_select(self, spec_file, capsys):
        # B=2 Q=5: 10 system qubits and 8 ancillas, past the cap that only --verify needs
        path = spec_file(dict(ANHARMONIC, bosons=2, qubits_per_boson=5, potential=[
            {"coeff": 1.0, "exponents": [2, 0]}, {"coeff": 1.0, "exponents": [0, 2]},
            {"coeff": 0.5, "exponents": [2, 2]}, {"coeff": 1.0, "exponents": [4, 0]}]))
        code, out = run_cli(["blockenc", path, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert [doc[k] for k in ("n_terms", "ancilla_count", "system_qubits",
                                 "terms_potential", "terms_kinetic")] == [147, 8, 10, 126, 21]
        assert main(["blockenc", path, "--verify"]) == 3
        assert "capped at 14 total qubits" in capsys.readouterr().err

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
