"""Declarative circuit programs: JSON documents in, outcome reports out.

A program document has four sections:

* ``photons``: initial single-photon qubits — id, path, polarization state
  ("H", "V", "+", "-" or {"H": [re, im], "V": [re, im]}, normalized);
* ``beams``: initial live qubus amplitudes as [re, im] pairs;
* ``circuit``: the ordered instruction list (elements, measurements and
  gates; ``REQUIRED_FIELDS`` below lists each op with the fields it needs,
  ``OPTIONAL_FIELDS`` the per-gate alpha/theta any op may carry);
* ``run``: options — mode "exact" or "sample", seed, shots (an integer
  ≥ 1), default gate alpha/theta, optional detector {eta, gamma, theta_p},
  Poisson tail and cutoff (``RUN_FIELDS``).

Malformed documents raise ParseError; well-formed documents with dangling
references or unnormalized states raise ValidationError.  Reports are plain
dicts with deterministic ordering so equal runs serialize byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .detection import DetectorParams, enumerate_fock_outcomes, qnd_detect, sample_fock
from .elements import (
    ANY,
    ModeSelector,
    pbs_diag,
    pbs_hv,
    phase_shift,
    photon_bs,
    qubus_bs,
    qubus_phase,
    xpm,
)
from .errors import ParseError, SimulatorError, ValidationError
from .gates import (
    ExactMode,
    FreshAncilla,
    ParkedAncilla,
    Record,
    ResourceTrace,
    SampleMode,
    c_path,
    c_phase,
    chain,
    cnot,
    coalesce,
    controlled_pair,
    cz,
    fredkin,
    initial_records,
    merging,
    multi_toffoli,
    synth_two_qubit,
    toffoli,
)
from .state import HybridState, product_state

# every op with the fields it reads and their JSON types; parse_circuit
# checks them
_TWO_QUBIT = {"control": str, "target": str}
REQUIRED_FIELDS = {
    # elements
    "photon_bs": {"paths": list},
    "pbs_hv": {"transmit": dict, "reflect": dict},
    "pbs_diag": {"transmit": dict, "reflect": dict},
    "phase_shift": {"path": int, "phi": float},
    "qubus_phase": {"beam": int, "phi": float},
    "qubus_bs": {"beams": list},
    "xpm": {"path": int, "beam": int},
    "photon_unitary": {"photon": str, "modes": list, "matrix": list},
    "swap_paths": {"paths": list},
    # measurements
    "measure_fock": {"beam": int},
    "qnd": {"beam": int},
    # gates
    "c_path": {**_TWO_QUBIT, "target_paths": list},
    "merging": {"photon": str, "source_paths": list, "dest": int,
                "companion_flip": dict},
    "cnot": _TWO_QUBIT,
    "cz": _TWO_QUBIT,
    "c_phase": {**_TWO_QUBIT, "phi": float},
    "controlled_pair": {**_TWO_QUBIT, "u1": list, "u2": list},
    "two_qubit": {**_TWO_QUBIT, "matrix": list},
    "fredkin": {"control": str, "targets": list},
    "toffoli": {"controls": list, "target": str},
    "multi_toffoli": {"controls": list, "target": str},
}
INSTRUCTIONS = tuple(REQUIRED_FIELDS)
# optional fields any op may carry (the per-gate qubus parameters), and the
# run options, with their JSON types; a null "cutoff" means the default
OPTIONAL_FIELDS = {"alpha": float, "theta": float}
RUN_FIELDS = {"seed": int, "alpha": float, "theta": float, "tail": float}
# fields naming two paths (photon_bs/swap_paths, c_path, merging)
_PATH_PAIRS = ("paths", "target_paths", "source_paths")
_POL_LABELS = ("H", "V", "h", "v", 0, 1)
_SELECTOR_POLS = _POL_LABELS + (ANY,)


@dataclass(frozen=True)
class CircuitProgram:
    photons: tuple[tuple[str, int, tuple[complex, complex]], ...]
    beams: tuple[complex, ...]
    extra_paths: tuple[int, ...]
    instructions: tuple[dict, ...]
    mode: str = "exact"
    seed: int = 0
    shots: int = 1
    alpha: float = 2.0
    theta: float = 0.5
    detector: Optional[DetectorParams] = None
    tail: float = 1e-12
    cutoff: Optional[int] = None


def _need(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", where)
    val = obj[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, kind):
        raise ParseError(f"field {key!r} must be {kind}", where)
    return val


def _parse_complex(val, where: str) -> complex:
    if isinstance(val, (int, float)):
        return complex(val)
    if (isinstance(val, list) and len(val) == 2
            and all(isinstance(x, (int, float)) for x in val)):
        return complex(val[0], val[1])
    raise ParseError("complex numbers are [re, im] pairs", where)


def _parse_pol_state(val, where: str):
    if isinstance(val, str):
        return val
    if isinstance(val, dict):
        return {"H": _parse_complex(val.get("H", 0), where),
                "V": _parse_complex(val.get("V", 0), where)}
    raise ParseError("polarization state must be a label or {H, V} amplitudes", where)


def _parse_matrix(val, dim: int, where: str) -> np.ndarray:
    if not (isinstance(val, list) and len(val) == dim):
        raise ParseError(f"matrix must be {dim}x{dim}", where)
    rows = []
    for i, row in enumerate(val):
        if not (isinstance(row, list) and len(row) == dim):
            raise ParseError(f"matrix must be {dim}x{dim}", where)
        rows.append([_parse_complex(x, f"{where}[{i}]") for x in row])
    return np.array(rows, dtype=complex)


def _is_int_pair(val) -> bool:
    return (isinstance(val, list) and len(val) == 2
            and all(isinstance(p, int) for p in val))


def _check_optional(obj: dict, kinds: dict, where: str) -> None:
    """Optional fields, where present, have their JSON types; a "cutoff"
    is an integer or null."""
    for key, kind in kinds.items():
        if key in obj:
            _need(obj, key, kind, where)
    if obj.get("cutoff") is not None:
        _need(obj, "cutoff", int, where)


def _check_references(ins: dict, ids: set, where: str) -> None:
    """Path pairs hold two path numbers, photon references name known
    photons, and the photon ids of merging's ancilla and companion_flip
    objects are strings."""
    for key in _PATH_PAIRS:
        if key in ins and not _is_int_pair(ins[key]):
            raise ParseError(f"field {key!r} must be a pair of path numbers", where)
    refs = [(key, ins[key]) for key in ("photon", "control", "target") if key in ins]
    for key in ("controls", "targets"):
        if key in ins:
            refs += [(key, pid) for pid in _need(ins, key, list, where)]
    for key, pid in refs:
        if not isinstance(pid, str):
            raise ParseError(f"field {key!r} must hold photon ids", where)
        if pid not in ids:
            raise ValidationError(f"unknown photon {pid!r}", where)
    for key in ("ancilla", "companion_flip"):
        sub = ins.get(key, {})
        if not isinstance(sub, dict):
            raise ParseError(f"field {key!r} must be an object", where)
        if not isinstance(sub.get("photon", ""), str):
            raise ParseError("field 'photon' must be a photon id", f"{where}.{key}")


def _check_shapes(ins: dict, where: str) -> None:
    """The fields the op reads beyond their JSON types: merging's ancilla
    sign, the selector polarizations of xpm, phase_shift and merging's
    companion_flip, the PBS route maps, the beam pair of qubus_bs and the
    two (path, polarization) modes of photon_unitary."""
    op = ins["op"]
    if ins.get("ancilla", {}).get("sign", 1) not in (1, -1):
        raise ParseError("field 'sign' must be 1 or -1", f"{where}.ancilla")
    if op in ("xpm", "phase_shift", "merging"):
        sel, at = ((ins["companion_flip"], f"{where}.companion_flip")
                   if op == "merging" else (ins, where))
        if sel.get("pol", ANY) not in _SELECTOR_POLS:
            raise ParseError("field 'pol' must be H, V or ANY", at)
    if op in ("pbs_hv", "pbs_diag"):
        for key in ("transmit", "reflect"):
            if not all(k.removeprefix("-").isdecimal() and isinstance(v, int)
                       for k, v in ins[key].items()):
                raise ParseError(
                    f"field {key!r} must map path numbers to path numbers", where)
    if op == "qubus_bs" and not _is_int_pair(ins["beams"]):
        raise ParseError("field 'beams' must be a pair of beam numbers", where)
    if op == "photon_unitary" and not (
            len(ins["modes"]) == 2 and all(
                isinstance(m, list) and len(m) == 2 and isinstance(m[0], int)
                and m[1] in _POL_LABELS for m in ins["modes"])):
        raise ParseError(
            "field 'modes' must hold two [path, polarization] pairs", where)


def parse_circuit(text: str) -> CircuitProgram:
    """Parse and validate a program document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), f"line {exc.lineno}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for section in ("photons", "circuit"):
        if section not in doc:
            raise ParseError(f"missing section {section!r}")

    photons = []
    ids = set()
    paths = set()
    for i, ph in enumerate(doc["photons"]):
        where = f"photons[{i}]"
        if not isinstance(ph, dict):
            raise ParseError("photon entries are objects", where)
        pid = _need(ph, "id", str, where)
        path = _need(ph, "path", int, where)
        spec = _parse_pol_state(ph.get("state", "H"), where)
        if pid in ids:
            raise ValidationError(f"duplicate photon id {pid!r}", where)
        if path in paths:
            raise ValidationError(f"two photons start on path {path}", where)
        if isinstance(spec, dict):
            norm = abs(spec["H"]) ** 2 + abs(spec["V"]) ** 2
            if abs(norm - 1.0) > 1e-9:
                raise ValidationError(
                    f"photon state not normalized (|amps|^2 = {norm:.6g})", where)
            spec_t = (spec["H"], spec["V"])
        else:
            spec_t = spec
        ids.add(pid)
        paths.add(path)
        photons.append((pid, path, spec_t))

    beams = tuple(_parse_complex(b, f"beams[{i}]")
                  for i, b in enumerate(doc.get("beams", [])))
    extra = tuple(doc.get("paths", []))
    if not all(isinstance(p, int) for p in extra):
        raise ParseError("extra paths must be integers", "paths")

    run = doc.get("run", {})
    if not isinstance(run, dict):
        raise ParseError("run section must be an object", "run")
    _check_optional(run, RUN_FIELDS, "run")
    mode = run.get("mode", "exact")
    if mode not in ("exact", "sample"):
        raise ValidationError(f"unknown run mode {mode!r}", "run.mode")
    det = None
    if run.get("detector") is not None:
        dd = run["detector"]
        det = DetectorParams(eta=float(_need(dd, "eta", (int, float), "run.detector")),
                             gamma=float(_need(dd, "gamma", (int, float), "run.detector")),
                             theta_p=float(_need(dd, "theta_p", (int, float), "run.detector")))

    known_paths = set(paths) | set(extra)
    instructions = []
    for k, ins in enumerate(doc["circuit"]):
        where = f"circuit[{k}]"
        if not isinstance(ins, dict) or "op" not in ins:
            raise ParseError("instructions are objects with an 'op' field", where)
        op = ins["op"]
        if op not in INSTRUCTIONS:
            raise ValidationError(f"unknown op {op!r}", where)
        for key, kind in REQUIRED_FIELDS[op].items():
            _need(ins, key, kind, where)
        if op == "merging":
            _need(ins["companion_flip"], "path", int, f"{where}.companion_flip")
        _check_optional(ins, OPTIONAL_FIELDS, where)
        _check_references(ins, ids, where)
        _check_shapes(ins, where)
        # matrices are validated eagerly so malformed programs fail at parse
        if op == "photon_unitary":
            _parse_matrix(_need(ins, "matrix", list, where), 2, where)
        if op == "controlled_pair":
            _parse_matrix(_need(ins, "u1", list, where), 2, where)
            _parse_matrix(_need(ins, "u2", list, where), 2, where)
        if op == "two_qubit":
            _parse_matrix(_need(ins, "matrix", list, where), 4, where)
        instructions.append(dict(ins))
        for key in _PATH_PAIRS:
            if key in ins:
                known_paths |= set(ins[key])

    shots = run.get("shots", 1)
    if not isinstance(shots, int) or isinstance(shots, bool) or shots < 1:
        raise ValidationError(f"shots must be an integer >= 1, got {shots!r}",
                              "run.shots")
    cutoff = run.get("cutoff")
    return CircuitProgram(
        photons=tuple(photons), beams=beams, extra_paths=extra,
        instructions=tuple(instructions), mode=mode,
        seed=int(run.get("seed", 0)), shots=shots,
        alpha=float(run.get("alpha", 2.0)), theta=float(run.get("theta", 0.5)),
        detector=det, tail=float(run.get("tail", 1e-12)),
        cutoff=None if cutoff is None else int(cutoff))


def _fmt_complex(z: complex) -> list[float]:
    return [float(f"{z.real:.12g}"), float(f"{z.imag:.12g}")]


def serialize_program(program: CircuitProgram) -> str:
    """Canonical JSON text; parse(serialize(p)) == p."""
    doc = {
        "photons": [
            {"id": pid, "path": path,
             "state": spec if isinstance(spec, str)
             else {"H": _fmt_complex(spec[0]), "V": _fmt_complex(spec[1])}}
            for pid, path, spec in program.photons],
        "beams": [_fmt_complex(b) for b in program.beams],
        "paths": list(program.extra_paths),
        "circuit": [dict(ins) for ins in program.instructions],
        "run": {
            "mode": program.mode, "seed": program.seed, "shots": program.shots,
            "alpha": program.alpha, "theta": program.theta,
            "detector": (None if program.detector is None else
                         {"eta": program.detector.eta,
                          "gamma": program.detector.gamma,
                          "theta_p": program.detector.theta_p}),
            "tail": program.tail,
            "cutoff": program.cutoff,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def initial_state(program: CircuitProgram) -> HybridState:
    return product_state(
        [(pid, path, spec) for pid, path, spec in program.photons],
        beams=program.beams, extra_paths=program.extra_paths)


def _selector_from(ins: dict, where: str) -> ModeSelector:
    return ModeSelector(path=int(ins["path"]), pol=ins.get("pol", ANY),
                        photon=ins.get("photon"))


def _tag_labels(records: Sequence[Record], k: int, start: int) -> list[Record]:
    out = []
    for rec in records:
        labels = rec.labels[:start] + tuple(
            (f"{k}.{lab[0]}",) + tuple(lab[1:]) for lab in rec.labels[start:])
        out.append(replace(rec, labels=labels))
    return out


def apply_program_instruction(records: list[Record], ins: dict, k: int,
                              program: CircuitProgram, mode, trace) -> list[Record]:
    op = ins["op"]
    alpha = float(ins.get("alpha", program.alpha))
    theta = float(ins.get("theta", program.theta))
    where = f"circuit[{k}] ({op})"

    def elementwise(fn):
        return [replace(r, state=fn(r.state)) for r in records]

    try:
        if op == "photon_bs":
            a, b = ins["paths"]
            return elementwise(lambda s: photon_bs(s, a, b))
        if op == "pbs_hv":
            t = {int(kk): v for kk, v in ins["transmit"].items()}
            r = {int(kk): v for kk, v in ins["reflect"].items()}
            return elementwise(lambda s: pbs_hv(s.add_paths(set(t.values()) | set(r.values())), t, r))
        if op == "pbs_diag":
            t = {int(kk): v for kk, v in ins["transmit"].items()}
            r = {int(kk): v for kk, v in ins["reflect"].items()}
            return elementwise(lambda s: pbs_diag(s.add_paths(set(t.values()) | set(r.values())), t, r))
        if op == "phase_shift":
            sel = _selector_from(ins, where)
            return elementwise(lambda s: phase_shift(s, sel, float(ins["phi"])))
        if op == "qubus_phase":
            return elementwise(lambda s: qubus_phase(s, int(ins["beam"]),
                                                     float(ins["phi"])))
        if op == "qubus_bs":
            i, j = ins["beams"]
            return elementwise(lambda s: qubus_bs(s, i, j))
        if op == "xpm":
            sel = _selector_from(ins, where)
            return elementwise(lambda s: xpm(s, sel, int(ins["beam"]), theta))
        if op == "photon_unitary":
            m = _parse_matrix(ins["matrix"], 2, where)
            (pa, la), (pb, lb) = ins["modes"]
            return elementwise(lambda s: s.apply_photon_unitary(
                ins["photon"], (int(pa), la), (int(pb), lb), m))
        if op == "swap_paths":
            a, b = ins["paths"]
            return elementwise(lambda s: s.add_paths({a, b}).swap_paths(a, b))

        if op == "measure_fock":
            beam = int(ins["beam"])
            cutoff = ins.get("cutoff", program.cutoff)
            out = []
            for rec in records:
                if isinstance(mode, SampleMode):
                    n, post = sample_fock(rec.state, beam, mode.rng,
                                          tail=program.tail, cutoff=cutoff)
                    subs = [(n, 1.0, post)]
                else:
                    subs = enumerate_fock_outcomes(
                        rec.state, beam, tail=program.tail, cutoff=cutoff)
                for n, p, post in subs:
                    out.append(replace(rec, labels=rec.labels + ((f"{k}.n", n),),
                                       probability=rec.probability * p,
                                       state=post))
            return out
        if op == "qnd":
            if program.detector is None:
                raise ValidationError("qnd instruction needs run.detector", where)
            beam = int(ins["beam"])
            out = []
            for rec in records:
                if isinstance(mode, SampleMode):
                    pairs = [qnd_detect(rec.state, beam, program.detector,
                                        mode="sample", rng=mode.rng,
                                        tail=program.tail)]
                    pairs = [(oc, st, 1.0) for oc, st in pairs]
                else:
                    pairs = [(oc, st, oc.probability) for oc, st in
                             qnd_detect(rec.state, beam, program.detector,
                                        tail=program.tail) if st is not None]
                for oc, st, p in pairs:
                    label = (f"{k}.qnd",
                             oc.tag if oc.k is None else f"{oc.tag}:{oc.k}")
                    out.append(replace(rec, labels=rec.labels + (label,),
                                       probability=rec.probability * p,
                                       state=st))
            return out

        # gates: thread through records, tag new labels with the
        # instruction index, coalesce afterwards
        def gate_stage(fn):
            start = len(records[0].labels) if records else 0
            subs = chain(records, fn)
            return coalesce(_tag_labels(subs, k, start))

        gmode = mode
        if op == "c_path":
            p1, p2 = ins["target_paths"]
            return gate_stage(lambda rec: c_path(
                rec.state, ins["control"], ins["target"], (p1, p2),
                alpha, theta, mode=gmode, trace=trace))
        if op == "merging":
            p1, p2 = ins["source_paths"]
            anc = ins.get("ancilla", {})
            spec = FreshAncilla(anc.get("photon", "ancilla"),
                                int(anc.get("sign", 1)))
            cf = ins["companion_flip"]
            flip = ModeSelector(path=int(cf["path"]), pol=cf.get("pol", "V"),
                                photon=cf.get("photon"))
            return gate_stage(lambda rec: merging(
                rec.state, ins["photon"], (p1, p2), int(ins["dest"]),
                alpha, theta,
                ancilla=(ParkedAncilla(*rec.ancilla) if rec.ancilla else spec),
                companion_flip=flip, mode=gmode, trace=trace))
        if op == "cnot":
            return gate_stage(lambda rec: cnot(
                rec.state, ins["control"], ins["target"], alpha, theta,
                mode=gmode, trace=trace,
                ancilla=ParkedAncilla(*rec.ancilla) if rec.ancilla else None))
        if op == "cz":
            return gate_stage(lambda rec: cz(
                rec.state, ins["control"], ins["target"], alpha, theta,
                mode=gmode, trace=trace,
                ancilla=ParkedAncilla(*rec.ancilla) if rec.ancilla else None))
        if op == "c_phase":
            return gate_stage(lambda rec: c_phase(
                rec.state, ins["control"], ins["target"], float(ins["phi"]),
                alpha, theta, mode=gmode, trace=trace,
                ancilla=ParkedAncilla(*rec.ancilla) if rec.ancilla else None))
        if op == "controlled_pair":
            u1 = _parse_matrix(ins["u1"], 2, where)
            u2 = _parse_matrix(ins["u2"], 2, where)
            return gate_stage(lambda rec: controlled_pair(
                rec.state, ins["control"], ins["target"], u1, u2, alpha, theta,
                mode=gmode, trace=trace,
                ancilla=ParkedAncilla(*rec.ancilla) if rec.ancilla else None))
        if op == "two_qubit":
            u = _parse_matrix(ins["matrix"], 4, where)
            return gate_stage(lambda rec: synth_two_qubit(
                rec.state, ins["control"], ins["target"], u, alpha, theta,
                mode=gmode, trace=trace,
                ancilla=ParkedAncilla(*rec.ancilla) if rec.ancilla else None))
        if op == "fredkin":
            t1, t2 = ins["targets"]
            return gate_stage(lambda rec: fredkin(
                rec.state, ins["control"], t1, t2, alpha, theta,
                mode=gmode, trace=trace,
                ancilla=ParkedAncilla(*rec.ancilla) if rec.ancilla else None))
        if op == "toffoli":
            c1, c2 = ins["controls"]
            return gate_stage(lambda rec: toffoli(
                rec.state, c1, c2, ins["target"], alpha, theta,
                mode=gmode, trace=trace,
                ancilla=ParkedAncilla(*rec.ancilla) if rec.ancilla else None))
        if op == "multi_toffoli":
            return gate_stage(lambda rec: multi_toffoli(
                rec.state, list(ins["controls"]), ins["target"], alpha, theta,
                mode=gmode, trace=trace,
                ancilla=ParkedAncilla(*rec.ancilla) if rec.ancilla else None))
    except SimulatorError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    raise ValidationError(f"unknown op {op!r}", where)


def _record_report(rec: Record) -> dict:
    st = rec.state.canonicalize(1e-12)
    amplitudes = {}
    for br in st.branches:
        parts = []
        for pid, m in zip(st.photons, br.config):
            parts.append(f"{pid}@-" if m is None
                         else f"{pid}@{m[0]}:{'HV'[m[1]]}")
        key = " ".join(parts)
        if br.qubus:
            key += " | " + " ".join(f"{z.real:.9g}{z.imag:+.9g}j" for z in br.qubus)
        amplitudes[key] = _fmt_complex(br.amp)
    return {
        "labels": [list(lab) if isinstance(lab, tuple) else lab
                   for lab in rec.labels],
        "probability": float(f"{rec.probability:.12g}"),
        "multiplicity": rec.multiplicity,
        "corrections": list(rec.corrections),
        "ancilla": list(rec.ancilla) if rec.ancilla else None,
        "norm": float(f"{st.norm():.12g}"),
        "amplitudes": dict(sorted(amplitudes.items())),
    }


def run_program(program: CircuitProgram) -> dict:
    """Execute a program and return its (deterministic) report dict."""
    trace = ResourceTrace()
    checks = {"norms_ok": True, "probability_sum": None}

    def execute(mode) -> list[Record]:
        records = initial_records(initial_state(program))
        for k, ins in enumerate(program.instructions):
            records = apply_program_instruction(records, ins, k, program,
                                                mode, trace)
        return records

    report = {"mode": program.mode}
    if program.mode == "exact":
        records = execute(ExactMode(tail=program.tail))
        total = float(sum(r.probability for r in records))
        checks["probability_sum"] = float(f"{total:.12g}")
        recs = [_record_report(r) for r in records]
        checks["norms_ok"] = bool(all(abs(r["norm"] - 1.0) < 1e-8 for r in recs))
        checks["probability_ok"] = bool(abs(total - 1.0) < 1e-9)
        report["records"] = recs
    else:
        rng = np.random.default_rng(program.seed)
        shots = []
        for shot in range(program.shots):
            records = execute(SampleMode(rng=rng, tail=program.tail))
            if len(records) != 1:
                records = coalesce(records)
            rep = _record_report(records[0])
            rep["shot"] = shot
            shots.append(rep)
        checks["norms_ok"] = bool(all(abs(r["norm"] - 1.0) < 1e-8 for r in shots))
        checks["probability_ok"] = True
        report["seed"] = program.seed
        report["shots"] = shots
    resources = trace.report()
    report["resources"] = {
        "c_path_count": resources.c_path_count,
        "merging_count": resources.merging_count,
        "ancilla_photons_concurrent": resources.ancilla_photons_concurrent,
        "xpm_coupling_count": resources.xpm_coupling_count,
        "qubus_uses": resources.qubus_uses,
        "cumulative_qubus_attenuation":
            float(f"{resources.cumulative_qubus_attenuation:.12g}"),
    }
    report["checks"] = checks
    report["ok"] = bool(checks["norms_ok"] and checks["probability_ok"])
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
