"""Circuit documents and the command-line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qubusim.circuits import (
    override_run,
    parse_circuit,
    report_to_json,
    run_program,
    serialize_program,
)
from qubusim.cli import gate_catalog, main
from qubusim.errors import CutoffTooSmall, ParseError, ValidationError
from qubusim.kak import canonical_gate
from qubusim.verify import extract_process_matrix

from conftest import random_unitary

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

CNOT_DOC = """
{
  "photons": [
    {"id": "C", "path": 0, "state": "V"},
    {"id": "T", "path": 1, "state": "H"}
  ],
  "circuit": [{"op": "cnot", "control": "C", "target": "T"}],
  "run": {"mode": "exact", "alpha": 2.0, "theta": 0.5}
}
"""


class TestParsing:
    def test_minimal_cnot(self):
        program = parse_circuit(CNOT_DOC)
        assert len(program.instructions) == 1
        assert program.instructions[0]["op"] == "cnot"

    def test_unnormalized_state_rejected(self):
        doc = json.loads(CNOT_DOC)
        doc["photons"][1]["state"] = {"H": [0.6, 0], "V": [0.9, 0]}
        with pytest.raises(ValidationError, match="not normalized"):
            parse_circuit(json.dumps(doc))

    def test_unknown_reference_rejected(self):
        doc = json.loads(CNOT_DOC)
        doc["circuit"][0]["target"] = "nope"
        with pytest.raises(ValidationError, match="unknown photon"):
            parse_circuit(json.dumps(doc))

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_circuit("{not json")

    def test_wrong_types_are_parse_errors(self):
        doc = json.loads(CNOT_DOC)
        doc["photons"][0]["path"] = "zero"
        with pytest.raises(ParseError):
            parse_circuit(json.dumps(doc))

    def test_missing_op_field_is_parse_error(self, tmp_path):
        doc = json.loads(CNOT_DOC)
        doc["circuit"] = [{"op": "photon_bs"}]
        with pytest.raises(ParseError, match="'paths'") as exc:
            parse_circuit(json.dumps(doc))
        assert exc.value.location == "circuit[0]"
        src = tmp_path / "bs.json"
        src.write_text(json.dumps(doc))
        assert main(["run", str(src)]) == 2

    @pytest.mark.parametrize("ins,field,location", [
        ({"op": "photon_bs", "paths": [0]}, "paths", "circuit[0]"),
        ({"op": "phase_shift", "path": 0, "phi": 1, "photon": ["a"]},
         "photon", "circuit[0]"),
        ({"op": "swap_paths", "paths": [[0], 1]}, "paths", "circuit[0]"),
        ({"op": "c_path", "control": "C", "target": "T", "target_paths": [1, 2, 3]},
         "target_paths", "circuit[0]"),
        ({"op": "toffoli", "controls": [["C"]], "target": "T"}, "controls",
         "circuit[0]"),
        ({"op": "merging", "photon": "T", "source_paths": [1, 2], "dest": 3,
          "companion_flip": {"path": 0, "photon": ["C"]}}, "photon",
         "circuit[0].companion_flip"),
        ({"op": "merging", "photon": "T", "source_paths": [1, 2], "dest": 3,
          "companion_flip": {"path": 0}, "ancilla": 5}, "ancilla", "circuit[0]"),
        ({"op": "cnot", "control": "C", "target": "T", "alpha": "x"}, "alpha",
         "circuit[0]"),
        ({"op": "cnot", "control": "C", "target": "T", "theta": [1]}, "theta",
         "circuit[0]"),
        ({"op": "merging", "photon": "T", "source_paths": [1, 2], "dest": 3,
          "companion_flip": {"path": 0}, "ancilla": {"sign": "x"}}, "sign",
         "circuit[0].ancilla"),
        ({"op": "pbs_hv", "transmit": {"x": 1}, "reflect": {}}, "transmit",
         "circuit[0]"),
        ({"op": "qubus_bs", "beams": [0]}, "beams", "circuit[0]"),
        ({"op": "photon_unitary", "photon": "C", "modes": [[0]],
          "matrix": [[1, 0], [0, 1]]}, "modes", "circuit[0]"),
        ({"op": "measure_fock", "beam": 0, "cutoff": "x"}, "cutoff", "circuit[0]"),
        ({"op": "toffoli", "controls": ["C", "T", "C"], "target": "T"}, "controls",
         "circuit[0]"),
        ({"op": "fredkin", "control": "C", "targets": ["T"]}, "targets",
         "circuit[0]"),
    ])
    def test_malformed_references_are_parse_errors(self, tmp_path, ins, field,
                                                   location):
        doc = json.loads(CNOT_DOC)
        doc["circuit"] = [ins]
        with pytest.raises(ParseError, match=f"'{field}'") as exc:
            parse_circuit(json.dumps(doc))
        assert exc.value.location == location
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        assert main(["run", str(src)]) == 2

    @pytest.mark.parametrize("run,field", [
        ({"seed": "x"}, "seed"), ({"alpha": "x"}, "alpha"),
        ({"theta": None}, "theta"), ({"tail": [1]}, "tail"),
        ({"cutoff": "3"}, "cutoff"), ({"detector": [0.9, 200, 0.1]}, "detector"),
        ({"alpha": float("nan")}, "alpha"), ({"theta": float("inf")}, "theta"),
        ({"mode": "sample", "seed": -1}, "seed"), ({"tail": -1}, "tail"),
        ({"tail": 0}, "tail"), ({"tail": 1.5}, "tail"),
    ])
    def test_malformed_run_options_are_parse_errors(self, tmp_path, run, field):
        doc = json.loads(CNOT_DOC)
        doc["run"] = run
        with pytest.raises(ParseError, match=f"'{field}'") as exc:
            parse_circuit(json.dumps(doc))
        assert exc.value.location == "run"
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        assert main(["run", str(src)]) == 2

    @pytest.mark.parametrize("section", ["photons", "beams", "paths", "circuit"])
    def test_sections_that_are_not_lists_are_parse_errors(self, tmp_path, section):
        doc = json.loads(CNOT_DOC)
        doc[section] = {"0": doc.get(section)}
        with pytest.raises(ParseError, match=f"'{section}'") as exc:
            parse_circuit(json.dumps(doc))
        assert exc.value.location == section
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        assert main(["run", str(src)]) == 2

    @pytest.mark.parametrize("option,value", [("seed", "-1"), ("tail", "-1"),
                                              ("tail", "1")])
    def test_malformed_run_overrides_are_parse_errors(self, tmp_path, capsys,
                                                      option, value):
        src = tmp_path / "cnot.json"
        src.write_text(CNOT_DOC)
        assert main(["run", str(src), "--mode", "sample",
                     f"--{option}", value]) == 2
        assert f"'{option}'" in capsys.readouterr().err

    @pytest.mark.parametrize("ins", [
        {"op": "cnot", "control": "C", "target": "C"},
        {"op": "c_path", "control": "T", "target": "T", "target_paths": [1, 2]},
        {"op": "toffoli", "controls": ["C", "C"], "target": "T"},
        {"op": "toffoli", "controls": ["C", "T"], "target": "T"},
        {"op": "multi_toffoli", "controls": ["C", "T", "C"], "target": "U"},
        {"op": "fredkin", "control": "C", "targets": ["T", "T"]},
        {"op": "fredkin", "control": "T", "targets": ["U", "T"]},
    ])
    def test_photon_named_twice_is_a_validation_error(self, tmp_path, ins):
        doc = json.loads(CNOT_DOC)
        doc["photons"].append({"id": "U", "path": 2, "state": "H"})
        doc["circuit"] = [{"op": "cz", "control": "C", "target": "T"}, ins]
        with pytest.raises(ValidationError, match="named twice") as exc:
            parse_circuit(json.dumps(doc))
        assert exc.value.location == "circuit[1]"
        src = tmp_path / "twice.json"
        src.write_text(json.dumps(doc))
        assert main(["run", str(src)]) == 3

    @pytest.mark.parametrize("ins,location", [
        ({"op": "xpm", "path": 0, "pol": "X", "beam": 0, "theta": 0.3},
         "circuit[0]"),
        ({"op": "phase_shift", "path": 0, "pol": "any", "phi": 1.0}, "circuit[0]"),
        ({"op": "merging", "photon": "T", "source_paths": [1, 2], "dest": 3,
          "companion_flip": {"path": 0, "pol": 2}}, "circuit[0].companion_flip"),
    ])
    def test_selector_pol_is_a_parse_error(self, tmp_path, ins, location):
        doc = json.loads(CNOT_DOC)
        doc["circuit"] = [ins]
        with pytest.raises(ParseError, match="'pol'") as exc:
            parse_circuit(json.dumps(doc))
        assert exc.value.location == location
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        assert main(["run", str(src)]) == 2

    def test_selector_pol_labels_that_run(self):
        doc = json.loads(CNOT_DOC)
        doc["circuit"] = [{"op": "phase_shift", "path": 0, "pol": pol, "phi": 1.0}
                          for pol in ("H", "V", "h", "v", 0, 1, "ANY")]
        assert run_program(parse_circuit(json.dumps(doc)))["checks"]["norms_ok"]

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_measure_fock_cutoff_applies_in_both_modes(self, tmp_path, mode):
        doc = {"photons": [{"id": "P", "path": 0, "state": "H"}],
               "beams": [[3.0, 0.0]],
               "circuit": [{"op": "measure_fock", "beam": 0, "cutoff": 2}],
               "run": {"mode": mode, "shots": 3}}
        with pytest.raises(CutoffTooSmall, match="cutoff 2"):
            run_program(parse_circuit(json.dumps(doc)))
        src = tmp_path / "fock.json"
        src.write_text(json.dumps(doc))
        assert main(["run", str(src)]) == 1
        doc["circuit"][0]["cutoff"] = 40
        report = run_program(parse_circuit(json.dumps(doc)))
        labels = [lab for rec in report.get("records", report.get("shots"))
                  for lab in rec["labels"]]
        assert labels and all(n <= 40 for _, n in labels)

    @pytest.mark.parametrize("shots", [-3, 0, 2.5, "4", True])
    def test_shots_must_be_a_positive_int(self, tmp_path, shots):
        doc = json.loads(CNOT_DOC)
        doc["run"] = {"mode": "sample", "shots": shots}
        with pytest.raises(ValidationError) as exc:
            parse_circuit(json.dumps(doc))
        assert exc.value.location == "run.shots"
        src = tmp_path / "shots.json"
        src.write_text(json.dumps(doc))
        assert main(["run", str(src)]) == 3

    def test_shots_override_must_be_positive(self, tmp_path):
        src = tmp_path / "cnot.json"
        src.write_text(CNOT_DOC)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(src), "--mode", "sample", "--shots", "-3"])
        assert exc.value.code == 2

    def test_roundtrip(self):
        program = parse_circuit(CNOT_DOC)
        again = parse_circuit(serialize_program(program))
        assert again == program
        assert serialize_program(again) == serialize_program(program)


class TestRunProgram:
    def test_cnot_on_vh(self):
        report = run_program(parse_circuit(CNOT_DOC))
        assert report["ok"]
        assert report["checks"]["probability_sum"] == pytest.approx(1.0)
        for rec in report["records"]:
            keys = " ".join(rec["amplitudes"])
            assert "C@0:V" in keys and "T@1:V" in keys

    def test_sample_mode_seed_determinism(self):
        doc = json.loads(CNOT_DOC)
        doc["photons"][1]["state"] = "+"
        doc["run"] = {"mode": "sample", "seed": 41, "shots": 5,
                      "alpha": 2.0, "theta": 0.5}
        text = json.dumps(doc)
        a = report_to_json(run_program(parse_circuit(text)))
        b = report_to_json(run_program(parse_circuit(text)))
        assert a == b
        other = json.dumps({**doc, "run": {**doc["run"], "seed": 42}})
        c = report_to_json(run_program(parse_circuit(other)))
        assert c != a

    def test_elements_and_measurement(self):
        doc = {
            "photons": [{"id": "p", "path": 0, "state": "V"}],
            "beams": [[1.0, 0.0], [1.0, 0.0]],
            "circuit": [
                {"op": "xpm", "path": 0, "pol": "V", "beam": 0, "theta": 0.5},
                {"op": "qubus_phase", "beam": 0, "phi": -0.5},
                {"op": "qubus_bs", "beams": [0, 1]},
                {"op": "measure_fock", "beam": 0},
            ],
            "run": {"mode": "exact", "theta": 0.5},
        }
        report = run_program(parse_circuit(json.dumps(doc)))
        assert report["ok"]
        # photon is V so the phases cancel: difference beam is vacuum
        assert len(report["records"]) == 1
        assert report["records"][0]["labels"][0] == ["3.n", 0]

    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in (REPO / "circuits").glob("*.json")))
    def test_shipped_circuit_reports_are_golden(self, name):
        text = (REPO / "circuits" / f"{name}.json").read_text()
        golden = (REPO / "tests" / "golden" / f"{name}.json").read_text()
        assert report_to_json(run_program(parse_circuit(text))) + "\n" == golden

    def test_resources_count_each_gate_once(self):
        """Two cnots on a |+> control: each gate is one controlled-path and
        one merging gate, whatever the number of records it runs on."""
        doc = json.loads(CNOT_DOC)
        doc["photons"][0]["state"] = "+"
        doc["circuit"] *= 2
        report = run_program(parse_circuit(json.dumps(doc)))
        assert report["ok"] and len(report["records"]) > 1
        res = report["resources"]
        assert (res["c_path_count"], res["merging_count"], res["qubus_uses"],
                res["ancilla_photons_concurrent"]) == (2, 2, 4, 1)
        assert res["cumulative_qubus_attenuation"] == pytest.approx(
            math.cos(0.5) ** 4, abs=1e-12)

    @pytest.mark.parametrize("name", ["cnot", "toffoli"])
    def test_sampled_resources_are_one_run(self, name):
        """A sampled report's resources are those of one run, as in exact
        mode, whatever the number of shots."""
        program = parse_circuit((REPO / "circuits" / f"{name}.json").read_text())
        exact = run_program(override_run(program, mode="exact"))
        sampled = run_program(override_run(program, mode="sample", shots=3))
        assert len(sampled["shots"]) == 3
        assert sampled["resources"] == exact["resources"]

    def test_fredkin_demo_file(self):
        text = (REPO / "circuits" / "fredkin.json").read_text()
        report = run_program(parse_circuit(text))
        assert report["ok"]
        for rec in report["records"]:
            keys = " ".join(rec["amplitudes"])
            assert "T1@1:V" in keys and "T2@2:H" in keys
        assert report["resources"]["c_path_count"] == 2
        assert report["resources"]["merging_count"] == 2


class TestCommandLine:
    def test_run_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["run", str(bad)]) == 2
        unnorm = tmp_path / "unnorm.json"
        doc = json.loads(CNOT_DOC)
        doc["photons"][1]["state"] = {"H": [0.6, 0], "V": [0.9, 0]}
        unnorm.write_text(json.dumps(doc))
        assert main(["run", str(unnorm)]) == 3

    def test_huge_probe_mean_is_a_runtime_error(self, tmp_path, capsys):
        # the qnd readout's probe mean |γ|²(1−cos θp) is 5e13: refused before
        # its Poisson window (about 5.7e8 entries) is built
        doc = json.loads((REPO / "circuits" / "ops.json").read_text())
        doc["run"]["detector"]["gamma"] = 1e8
        src = tmp_path / "bright_probe.json"
        src.write_text(json.dumps(doc))
        assert main(["run", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime error: circuit[1] (qnd): probe mean")
        assert "Traceback" not in err

    def test_run_writes_report(self, tmp_path, capsys):
        src = tmp_path / "cnot.json"
        src.write_text(CNOT_DOC)
        out = tmp_path / "report.json"
        assert main(["run", str(src), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["ok"]
        capsys.readouterr()

    def test_run_near_degenerate_two_qubit(self, tmp_path, capsys):
        """A U(4) with canonical angles (π/8, 1e-9, 0) runs to a full report."""
        rng = np.random.default_rng(9)
        u = (np.kron(random_unitary(2, rng), random_unitary(2, rng))
             @ canonical_gate(math.pi / 8, 1e-9, 0.0)
             @ np.kron(random_unitary(2, rng), random_unitary(2, rng)))
        doc = json.loads(CNOT_DOC)
        doc["photons"][0]["state"] = "+"
        doc["circuit"] = [{"op": "two_qubit", "control": "C", "target": "T",
                           "matrix": [[[z.real, z.imag] for z in row]
                                      for row in u.tolist()]}]
        src = tmp_path / "two_qubit.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["run", str(src), "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["checks"]["probability_sum"] == pytest.approx(1.0, abs=1e-9)

    def test_verify_gate(self, capsys):
        assert main(["verify-gate", "cnot"]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out

    def test_verify_gate_toffoli_truth_table(self, capsys):
        assert main(["verify-gate", "toffoli"]) == 0
        out = capsys.readouterr().out
        assert "8x8" not in out  # table is printed directly
        assert "VVH" in out and "residual" in out
        assert "PASS" in out

    def test_error_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["error-curve", "--theta", "0.01", "--alpha", "100",
                   "--gamma", "100", "--eta", "0.5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("theta,alpha,gamma,eta,theta_p")
        assert len(lines) == 2

    @pytest.mark.parametrize("option,value,code,message", [
        ("--alpha", "1e308", 1, "error: the signal holds more than"),
        ("--alpha", "inf", 2, "'alpha' must be a finite number"),
        ("--alpha", "nan", 2, "'alpha' must be a finite number"),
        ("--theta", "x", 2, "'theta' must be a finite number"),
        ("--theta-p", "0.1,nan", 2, "'theta_p' must be a finite number"),
    ], ids=["alpha-1e308", "alpha-inf", "alpha-nan", "theta-text", "theta-p-nan"])
    def test_error_curve_rejects_bad_numbers(self, capsys, option, value, code,
                                             message):
        args = {"--theta": "0.5", "--alpha": "2", "--gamma": "100",
                "--eta": "0.9", option: value}
        assert main(["error-curve"] + [x for kv in args.items() for x in kv]) == code
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out

    def test_resources_command(self, capsys):
        assert main(["resources", "multi_toffoli", "--qubits", "4"]) == 0
        captured = capsys.readouterr()
        assert "c_path_count                 3" in captured.out

    @pytest.mark.parametrize("args", [
        "multi_toffoli --qubits 0", "multi_toffoli --qubits 2",
        "multi_toffoli --qubits x", "toffoli --qubits 9", "cnot --qubits 4"])
    def test_resources_rejects_bad_qubits(self, capsys, args):
        """`--qubits` is an integer of at least 3, for multi_toffoli only."""
        try:
            code = main(["resources"] + args.split())
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert "--qubits" in captured.err and not captured.out

    @pytest.mark.parametrize("args,option", [
        ("verify-gate cnot --theta inf", "--theta"),
        ("verify-gate cnot --alpha nan", "--alpha"),
        ("resources cnot --alpha nan", "--alpha"),
        ("resources cnot --theta nan", "--theta"),
        ("oracle-check --alpha inf", "--alpha"),
        ("oracle-check --theta x", "--theta"),
        ("oracle-check --cutoff 3000", "--cutoff"),
        ("oracle-check --cutoff 0", "--cutoff")])
    def test_bad_numbers_are_usage_errors(self, monkeypatch, capsys, args, option):
        """Checked before anything runs: no simulator or oracle call."""
        def refuse(*args, **kwargs):
            raise AssertionError("ran with a bad option")
        for name in ("extract_process_matrix", "cnot", "equivalence_report"):
            monkeypatch.setattr(f"qubusim.cli.{name}", refuse)
        with pytest.raises(SystemExit) as exc:
            main(args.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert option in captured.err and not captured.out

    def test_oracle_check(self, capsys):
        assert main(["oracle-check", "--alpha", "1.0", "--theta", "0.3",
                     "--cutoff", "30"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qubusim", "verify-gate", "cz"],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout


def test_reimported_package_is_released():
    # typing's caches keep the aliases they build, and an alias of a qubusim
    # class would keep each imported copy of the package alive
    script = """
import gc, importlib, sys, weakref

def fresh_import():
    for key in [k for k in sys.modules if k.split(".")[0] == "qubusim"]:
        del sys.modules[key]
    return importlib.import_module("qubusim")

qs = fresh_import()
refs = [weakref.ref(qs.state.HybridState), weakref.ref(qs.gates.MeasureMode),
        weakref.ref(qs.detection.DetectorParams)]
del qs
fresh_import()
gc.collect()
print([ref() is None for ref in refs])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[True, True, True]"


class TestGoldenGateOutputs:
    """`verify-gate` process matrices and `resources` output against
    snapshots taken before the composites folded recycled-ancilla records."""

    MATRICES = json.loads((GOLDEN / "verify_gate.json").read_text())
    RESOURCES = json.loads((GOLDEN / "resources.json").read_text())

    def test_catalog_is_covered(self):
        catalog = gate_catalog(self.MATRICES["alpha"], self.MATRICES["theta"])
        assert sorted(catalog) == sorted(self.MATRICES["matrices"])

    @pytest.mark.parametrize("name", sorted(MATRICES["matrices"]))
    def test_verify_gate_matrix(self, name):
        nq, runner, ideal = gate_catalog(self.MATRICES["alpha"],
                                         self.MATRICES["theta"])[name]
        matrix = extract_process_matrix(runner, [(f"q{i}", i) for i in range(nq)])
        golden = np.array([[complex(re, im) for re, im in row]
                           for row in self.MATRICES["matrices"][name]])
        assert abs(golden - ideal).max() <= 1e-14
        assert matrix.shape == (2 ** nq, 2 ** nq)
        assert abs(matrix - golden).max() <= 1e-12

    @pytest.mark.parametrize("args", sorted(RESOURCES))
    def test_resources_output(self, args, capsys):
        assert main(["resources"] + args.split()) == 0
        assert capsys.readouterr().out == self.RESOURCES[args]

    def test_resource_scaling_script(self):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "resource_scaling.py"), "6"],
            capture_output=True, text=True, cwd=REPO, env=env, check=True)
        assert proc.stdout == (GOLDEN / "resource_scaling.txt").read_text()
