"""Command-line front end.

Commands:

* ``run``          — execute a circuit document (exact tree or sampled shots)
* ``verify-gate``  — extract a built-in gate's process matrix / truth table
                     and compare against the ideal
* ``error-curve``  — sweep the QND detection-error formulas to CSV
* ``resources``    — print the resource report of a built-in gate
* ``oracle-check`` — run the truncated-Fock equivalence suite

Exit codes: 0 success, 1 a check failed, 2 parse error, 3 validation error.
"""

from __future__ import annotations

import argparse
import csv
from dataclasses import asdict
import io
import math
import sys

from . import circuits
from .detection import DetectorParams, detection_error_eq11, detection_error_exact
from .errors import ParseError, SimulatorError, ValidationError
from .gates import ResourceTrace, cnot, cz, fredkin, multi_toffoli, synth_two_qubit, toffoli
from .oracle import MAX_CUTOFF, equivalence_report
from .state import product_state
from .verify import (
    extract_process_matrix,
    ideal_cnot,
    ideal_cz,
    ideal_fredkin,
    ideal_multi_toffoli,
    ideal_swap,
    ideal_toffoli,
    matrix_residual_up_to_phase,
)

GATE_TOL = 1e-8


def gate_catalog(alpha: float, theta: float):
    """The built-in gates of `verify-gate`: name -> (qubit count, runner,
    ideal matrix), with runners bound to alpha and theta."""
    def two(f):
        return lambda st: f(st, "q0", "q1", alpha, theta).outcomes

    return {
        "cnot": (2, two(cnot), ideal_cnot()),
        "cz": (2, two(cz), ideal_cz()),
        "cnot-synth": (2, lambda st: synth_two_qubit(
            st, "q0", "q1", ideal_cnot(), alpha, theta).outcomes, ideal_cnot()),
        "swap-synth": (2, lambda st: synth_two_qubit(
            st, "q0", "q1", ideal_swap(), alpha, theta).outcomes, ideal_swap()),
        "fredkin": (3, lambda st: fredkin(
            st, "q0", "q1", "q2", alpha, theta).outcomes, ideal_fredkin()),
        "toffoli": (3, lambda st: toffoli(
            st, "q0", "q1", "q2", alpha, theta).outcomes, ideal_toffoli()),
        "toffoli3": (4, lambda st: multi_toffoli(
            st, ["q0", "q1", "q2"], "q3", alpha, theta).outcomes,
            ideal_multi_toffoli(3)),
    }


def _cmd_run(args) -> int:
    overrides = {key: getattr(args, key)
                 for key in ("mode", "seed", "shots", "tail", "cutoff")
                 if getattr(args, key) is not None}
    # a parse or validation error exits 2 or 3 from `main`
    with open(args.file, "r", encoding="utf-8") as fh:
        program = circuits.override_run(circuits.parse_circuit(fh.read()),
                                        **overrides)
    try:
        report = circuits.run_program(program)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except SimulatorError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    text = circuits.report_to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if report["mode"] == "exact":
        print(f"{len(report['records'])} outcome records, "
              f"sum p = {report['checks']['probability_sum']}")
        for rec in report["records"]:
            labels = " ".join("=".join(str(x) for x in lab) if isinstance(lab, list)
                              else str(lab) for lab in rec["labels"])
            print(f"  p={rec['probability']:.6g} x{rec['multiplicity']} [{labels}]")
            for key, (re_, im_) in rec["amplitudes"].items():
                print(f"      {key}: {re_:+.6f}{im_:+.6f}j")
    else:
        print(f"{len(report['shots'])} shots (seed {report['seed']})")
        for rec in report["shots"]:
            labels = " ".join("=".join(str(x) for x in lab) if isinstance(lab, list)
                              else str(lab) for lab in rec["labels"])
            print(f"  shot {rec['shot']}: [{labels}]")
    print("checks:", "ok" if report["ok"] else "FAILED")
    return 0 if report["ok"] else 1


def _cmd_verify_gate(args) -> int:
    catalog = gate_catalog(args.alpha, args.theta)
    if args.gate not in catalog:
        print(f"unknown gate {args.gate!r}; choose from {sorted(catalog)}",
              file=sys.stderr)
        return 3
    nq, runner, ideal = catalog[args.gate]
    qubits = [(f"q{i}", i) for i in range(nq)]
    matrix = extract_process_matrix(runner, qubits)
    residual = matrix_residual_up_to_phase(matrix, ideal)
    dim = 2 ** nq
    labels = ["".join("HV"[(j >> (nq - 1 - b)) & 1] for b in range(nq))
              for j in range(dim)]
    print(f"process matrix of {args.gate} (alpha={args.alpha}, theta={args.theta})")
    print("      " + " ".join(f"{l:>7s}" for l in labels))
    for i in range(dim):
        row = " ".join(
            "      ." if abs(matrix[i, j]) < 5e-9 else
            f"{matrix[i, j].real:+.2f}{matrix[i, j].imag:+.2f}j"
            for j in range(dim))
        print(f"{labels[i]:>5s} {row}")
    print(f"residual vs ideal (up to global phase): {residual:.3e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "col", "re", "im"])
            for i in range(dim):
                for j in range(dim):
                    w.writerow([labels[i], labels[j],
                                f"{matrix[i, j].real:.12g}",
                                f"{matrix[i, j].imag:.12g}"])
    print("verify-gate:", "PASS" if residual <= GATE_TOL else "FAIL")
    return 0 if residual <= GATE_TOL else 1


def _int_in(low: int, high: float = math.inf):
    """An argparse type: an integer from `low` to `high`."""
    def integer(text: str) -> int:  # argparse reports "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return integer


def _number(text: str):
    """`text` as a float, or the text itself where it is not a number."""
    try:
        return float(text)
    except ValueError:
        return text


def _finite(text: str) -> float:
    """An argparse type: a finite number, as in a circuit document."""
    value = _number(text)
    if not circuits._NUMBER.ok(value):
        raise argparse.ArgumentTypeError(f"must be {circuits._NUMBER.what}, got {text!r}")
    return value


def _floats(args, option: str) -> list[float]:
    """The comma-separated items of `--option`, each a finite number as in
    a circuit document; a bad item is a parse error naming the option."""
    return [circuits._NUMBER.parse(_number(x), option, "command line")
            for x in getattr(args, option).split(",") if x.strip()]


def _cmd_error_curve(args) -> int:
    thetas, alphas, gammas, etas = (_floats(args, option) for option in
                                    ("theta", "alpha", "gamma", "eta"))
    theta_ps = _floats(args, "theta_p") if args.theta_p else None
    rows = []
    for theta in thetas:
        for alpha in alphas:
            for gamma in gammas:
                for eta in etas:
                    for thp in theta_ps or [theta]:
                        det = DetectorParams(eta=eta, gamma=gamma, theta_p=thp)
                        exact = detection_error_exact(alpha, theta, det)
                        approx = detection_error_eq11(alpha, theta, det)
                        rows.append([theta, alpha, gamma, eta, thp, exact, approx,
                                     exact / approx if approx > 0 else math.inf])
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["theta", "alpha", "gamma", "eta", "theta_p",
                "exact_error", "closed_form", "ratio"])
    for row in rows:
        w.writerow([f"{x:.12g}" for x in row])
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_resources(args) -> int:
    alpha, theta = args.alpha, args.theta
    trace = ResourceTrace()
    if args.qubits is not None and args.gate != "multi_toffoli":
        raise ParseError("--qubits applies to multi_toffoli only")
    if args.gate == "multi_toffoli":
        k = args.qubits - 1 if args.qubits is not None else 3
        photons = [(f"q{i}", i, "V") for i in range(k)] + [("t", k, "H")]
        st = product_state(photons)
        multi_toffoli(st, [f"q{i}" for i in range(k)], "t", alpha, theta,
                      trace=trace)
    elif args.gate == "fredkin":
        st = product_state([("c", 0, "V"), ("t1", 1, "H"), ("t2", 2, "V")])
        fredkin(st, "c", "t1", "t2", alpha, theta, trace=trace)
    elif args.gate == "toffoli":
        st = product_state([("c1", 0, "V"), ("c2", 1, "V"), ("t", 2, "H")])
        toffoli(st, "c1", "c2", "t", alpha, theta, trace=trace)
    elif args.gate in ("cnot", "cz"):
        st = product_state([("c", 0, "V"), ("t", 1, "H")])
        (cnot if args.gate == "cnot" else cz)(st, "c", "t", alpha, theta,
                                              trace=trace)
    else:
        print(f"unknown gate {args.gate!r}", file=sys.stderr)
        return 3
    print(f"resources for {args.gate} (alpha={alpha}, theta={theta}):")
    for key, val in asdict(trace.report()).items():
        print(f"  {key:<28} {val:.9g}")
    return 0


def _cmd_oracle_check(args) -> int:
    report = equivalence_report(args.alpha, args.theta, args.cutoff)
    for key in sorted(report):
        print(f"  {key:24s} {report[key]:.3e}")
    ok = (report["worst_element"] <= 1e-6 and report["worst_pipeline"] <= 1e-6
          and report["worst_distribution"] <= 1e-8)
    print("oracle-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qubusim",
        description="Simulator for single-photon gates on weak-Kerr qubus hardware")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a circuit document")
    p.add_argument("file")
    p.add_argument("--out", help="write the structured report (JSON) here")
    p.add_argument("--mode", choices=["exact", "sample"])
    p.add_argument("--seed", type=int, help="64-bit sampling seed")
    p.add_argument("--shots", type=_int_in(1))
    p.add_argument("--tail", type=float, help="Poisson tail cutoff for enumeration")
    p.add_argument("--cutoff", type=int,
                   help="hard Fock cutoff for measure_fock instructions")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("verify-gate", help="process matrix of a built-in gate")
    p.add_argument("gate")
    p.add_argument("--alpha", type=_finite, default=2.0)
    p.add_argument("--theta", type=_finite, default=0.5)
    p.add_argument("--out", help="write the matrix as CSV here")
    p.set_defaults(fn=_cmd_verify_gate)

    p = sub.add_parser(
        "error-curve",
        help="CSV sweep of exact vs closed-form detection error",
        description="Writes CSV columns theta, alpha, gamma, eta, theta_p, "
                    "exact_error (nonzero signal reported as vacuum), "
                    "closed_form (the exponential approximation) and their "
                    "ratio, over the cartesian product of the given lists.")
    p.add_argument("--theta", required=True, help="comma-separated list")
    p.add_argument("--alpha", required=True, help="comma-separated list")
    p.add_argument("--gamma", required=True, help="comma-separated list")
    p.add_argument("--eta", required=True, help="comma-separated list")
    p.add_argument("--theta-p", dest="theta_p",
                   help="probe phase list; defaults to the gate theta")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_error_curve)

    p = sub.add_parser("resources", help="resource report of a built-in gate")
    p.add_argument("gate")
    p.add_argument("--qubits", type=_int_in(3),
                   help="total qubit count for multi_toffoli (controls + target)")
    p.add_argument("--alpha", type=_finite, default=2.0)
    p.add_argument("--theta", type=_finite, default=0.5)
    p.set_defaults(fn=_cmd_resources)

    p = sub.add_parser("oracle-check", help="truncated-Fock equivalence suite")
    p.add_argument("--alpha", type=_finite, default=1.5)
    p.add_argument("--theta", type=_finite, default=0.5)
    p.add_argument("--cutoff", type=_int_in(1, MAX_CUTOFF), default=40)
    p.set_defaults(fn=_cmd_oracle_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except SimulatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
