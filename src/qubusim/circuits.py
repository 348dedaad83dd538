"""Declarative circuit programs: JSON documents in, outcome reports out.

A program document has five sections:

* ``photons``: a list of initial single-photon qubits — id, path,
  polarization state ("H", "V", "+", "-" or {"H": [re, im], "V": [re, im]},
  normalized);
* ``beams``: a list of initial live qubus amplitudes as [re, im] pairs;
* ``paths``: a list of extra path numbers to register;
* ``circuit``: the ordered instruction list;
* ``run``: options (``RUN_FIELDS``) — mode "exact" or "sample", seed (an
  integer ≥ 0), shots (an integer ≥ 1), default gate alpha/theta, optional
  detector {eta, gamma, theta_p}, Poisson tail and cutoff.

``OPS`` is the one table of instructions: it maps each op to its fields and
to the function that applies it to a list of records.  Each field has a
kind (path pair, photon id or id pair, route map, selector ``pol``, 2×2 or
4×4 matrix, finite number, ...), which `parse_circuit` checks and
`apply_program_instruction` converts.  Every op may also carry ``alpha``
and ``theta``, which default to the run's.  Element ops build an
`elements.Instruction` and run `elements.apply_instruction`, as the oracle
does; gate ops run their gate on every record, with the ancilla a record
has parked (`gates._ancilla_for`).  Functions are looked up on their
modules when an op runs, not when the table is built.

Malformed documents raise ParseError; well-formed documents with dangling
references, a photon named twice in one op, or unnormalized states raise
ValidationError.  Reports are plain dicts with deterministic ordering so
equal runs serialize byte-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import detection, elements, gates
from .detection import DetectorParams
from .elements import ANY, ModeSelector
from .errors import ParseError, PreconditionViolation, SimulatorError, ValidationError
from .gates import Record
from .state import HybridState, pol_amplitudes, product_state

# -- field kinds -------------------------------------------------------------

_REQUIRED = object()
_POL_LABELS = ("H", "V", "h", "v", 0, 1)


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


def _is_complex(val) -> bool:
    return _is_number(val) or (isinstance(val, list) and len(val) == 2
                               and all(map(_is_number, val)))


def _to_complex(val) -> complex:
    return complex(*val) if isinstance(val, list) else complex(val)


def _is_list(val, item, min_len: int = 0, max_len: Optional[int] = None) -> bool:
    return (isinstance(val, list) and min_len <= len(val)
            and (max_len is None or len(val) <= max_len) and all(map(item, val)))


def _is_matrix(dim: int) -> Callable[[object], bool]:
    row = lambda r: _is_list(r, _is_complex, dim, dim)
    return lambda val: _is_list(val, row, dim, dim)


def _is_pol_state(val) -> bool:
    if isinstance(val, dict):
        return all(_is_complex(val.get(key, 0)) for key in ("H", "V"))
    try:
        return isinstance(val, str) and bool(pol_amplitudes(val))
    except PreconditionViolation:
        return False


@dataclass(frozen=True)
class _Kind:
    """The shape of one field: `ok` tests its JSON value and `convert`
    turns the value into what the op applies.  `photons` marks a value
    that names photons of the document; a default of None also stands for
    a null value."""

    what: str
    ok: Callable[[object], bool]
    convert: Callable[[object], object] = lambda val: val
    photons: bool = False
    default: object = _REQUIRED
    fields: Optional[dict] = None   # of a JSON object, reported at where.key

    def optional(self, default=None) -> "_Kind":
        return replace(self, default=default)

    def parse(self, val, key: str, where: str):
        if not self.ok(val):
            raise ParseError(f"field {key!r} must be {self.what}", where)
        if self.fields is not None:
            val = _fields(val, self.fields, f"{where}.{key}")
        return self.convert(val)


def _fields(obj: dict, fields: dict, where: str) -> dict:
    """The `fields` of a JSON object, each converted by its kind; an
    optional field that is absent takes its default."""
    out = {}
    for key, kind in fields.items():
        if key in obj and not (obj[key] is None and kind.default is None):
            out[key] = kind.parse(obj[key], key, where)
        elif kind.default is _REQUIRED:
            raise ParseError(f"missing field {key!r}", where)
        else:
            out[key] = kind.default
    return out


_INT = _Kind("an integer", _is_int)
_NUMBER = _Kind("a finite number", _is_number, float)
_COMPLEX = _Kind("a number or an [re, im] pair", _is_complex, _to_complex)
_NAME = _Kind("a photon id", lambda val: isinstance(val, str))
_PHOTON = replace(_NAME, photons=True)
_PHOTON_PAIR = _Kind("a pair of photon ids",
                     lambda val: _is_list(val, _NAME.ok, 2, 2), tuple, photons=True)
_PHOTON_LIST = _Kind("a list of at least two photon ids",
                     lambda val: _is_list(val, _NAME.ok, 2), list, photons=True)
_PATH_PAIR = _Kind("a pair of path numbers", lambda val: _is_list(val, _is_int, 2, 2),
                   tuple)
_BEAM_PAIR = replace(_PATH_PAIR, what="a pair of beam numbers")
_ROUTES = _Kind("a map of path numbers to path numbers",
                lambda val: isinstance(val, dict) and all(
                    k.removeprefix("-").isdecimal() and _is_int(v) for k, v in val.items()),
                lambda val: tuple((int(k), v) for k, v in val.items()))
_POL = _Kind("H, V or ANY", lambda val: val in _POL_LABELS + (ANY,))
_MODES = _Kind("two [path, polarization] pairs",
               lambda val: _is_list(val, lambda m: isinstance(m, list) and len(m) == 2
                                    and _is_int(m[0]) and m[1] in _POL_LABELS, 2, 2),
               lambda val: tuple(tuple(mode) for mode in val))
_MATRIX2 = _Kind("a 2x2 matrix", _is_matrix(2),
                 lambda val: np.array([[_to_complex(x) for x in row] for row in val]))
_MATRIX4 = replace(_MATRIX2, what="a 4x4 matrix", ok=_is_matrix(4))

# the selector of phase_shift and xpm, and merging's companion_flip
_SELECTOR = {"path": _INT, "pol": _POL.optional(ANY), "photon": _NAME.optional(None)}
_OBJECT = _Kind("an object", lambda val: isinstance(val, dict))
_COMPANION_FLIP = replace(_OBJECT, convert=lambda a: ModeSelector(**a),
                          fields={**_SELECTOR, "pol": _POL.optional("V")})
_ANCILLA = replace(_OBJECT, convert=lambda a: gates.FreshAncilla(**a),
                   fields={"photon": _NAME.optional("ancilla"),
                           "sign": _Kind("1 or -1", lambda val: val in (1, -1), int)
                           .optional(1)}).optional(None)

# -- the op table ------------------------------------------------------------


class _Step(NamedTuple):
    """What an op runs in: its index, the program, the measurement mode and
    the run's resource trace."""
    k: int
    program: "CircuitProgram"
    mode: gates.MeasureMode
    trace: gates.ResourceTrace


@dataclass(frozen=True)
class _Op:
    run: Callable[[list, dict, _Step], list]
    fields: dict


def _op(run, **fields) -> _Op:
    return _Op(run, {**fields, "alpha": _NUMBER.optional(), "theta": _NUMBER.optional()})


def _element(build, new_paths=lambda a: ()):
    """An op that maps every record's state.  `build(args)` gives an
    `elements.Instruction`, run by `elements.apply_instruction`, or a
    function of the state; the paths `new_paths(args)` are registered
    first."""
    def run(records, a, step):
        made, paths = build(a), set(new_paths(a))
        fn = made if callable(made) else lambda s: elements.apply_instruction(s, made)
        return [replace(rec, state=fn(rec.state.add_paths(paths))) for rec in records]
    return run


def _route_targets(a) -> set:
    return {path for _, path in a["transmit"] + a["reflect"]}


def _selector(a) -> ModeSelector:
    return ModeSelector(a["path"], a["pol"], a["photon"])


def _gate(call):
    """A gate op: `call(state, args, ancilla, **kw)` runs the gate on one
    record, with the ancilla that record's merging uses and keywords alpha,
    theta, mode and trace.  New labels are tagged with the instruction index
    and the records coalesced.  The run's trace goes to the first call only,
    so that each instruction's resources are logged once."""
    def run(records, a, step):
        traces = iter([step.trace])
        start = len(records[0].labels) if records else 0
        subs = gates.chain(records, lambda rec: call(
            rec.state, a, gates._ancilla_for(rec, a.get("ancilla")),
            alpha=a["alpha"], theta=a["theta"], mode=step.mode,
            trace=next(traces, None)))
        return gates.coalesce(_tag_labels(subs, step.k, start))
    return run


def _readout(tag: str, read):
    """A measurement op: `read(state, args, step)` lists the (value,
    probability, post-state) of each outcome, one drawn outcome in sample
    mode; each outcome extends the record by the label (k.tag, value)."""
    def run(records, a, step):
        return [replace(rec, labels=rec.labels + ((f"{step.k}.{tag}", val),),
                        probability=rec.probability * p, state=post)
                for rec in records for val, p, post in read(rec.state, a, step)]
    return run


def _fock(state, a, step):
    program = step.program
    cutoff = a["cutoff"] if a["cutoff"] is not None else program.cutoff
    return [(n, p, post) for n, _, p, post, _ in detection.read_beam(
        state, a["beam"], tail=program.tail, cutoff=cutoff, rng=step.mode.rng)]


def _qnd(state, a, step):
    det, rng = step.program.detector, step.mode.rng
    if det is None:
        raise ValidationError("qnd instruction needs run.detector")
    read = detection.qnd_detect(state, a["beam"], det, rng=rng, tail=step.program.tail)
    if rng is not None:
        outcomes = [(read[0], 1.0, read[1])]
    else:
        outcomes = [(oc, oc.probability, post) for oc, post in read if post is not None]
    return [(oc.tag if oc.k is None else f"{oc.tag}:{oc.k}", p, post)
            for oc, p, post in outcomes]


_TWO_QUBIT = {"control": _PHOTON, "target": _PHOTON}

OPS = {
    # elements
    "photon_bs": _op(_element(lambda a: elements.PhotonBS(*a["paths"])),
                     paths=_PATH_PAIR),
    "pbs_hv": _op(_element(lambda a: elements.PbsHV(a["transmit"], a["reflect"]),
                           _route_targets), transmit=_ROUTES, reflect=_ROUTES),
    "pbs_diag": _op(_element(lambda a: elements.PbsDiag(a["transmit"], a["reflect"]),
                             _route_targets), transmit=_ROUTES, reflect=_ROUTES),
    "phase_shift": _op(_element(lambda a: elements.PhaseShift(_selector(a), a["phi"])),
                       **_SELECTOR, phi=_NUMBER),
    "qubus_phase": _op(_element(lambda a: elements.QubusPhase(a["beam"], a["phi"])),
                       beam=_INT, phi=_NUMBER),
    "qubus_bs": _op(_element(lambda a: elements.QubusBS(*a["beams"])),
                    beams=_BEAM_PAIR),
    "xpm": _op(_element(lambda a: elements.Xpm(_selector(a), a["beam"], a["theta"])),
               **_SELECTOR, beam=_INT),
    "photon_unitary": _op(_element(lambda a: lambda s: s.apply_photon_unitary(
        a["photon"], *a["modes"], a["matrix"])),
        photon=_PHOTON, modes=_MODES, matrix=_MATRIX2),
    "swap_paths": _op(_element(lambda a: lambda s: s.swap_paths(*a["paths"]),
                               lambda a: a["paths"]), paths=_PATH_PAIR),
    # measurements
    "measure_fock": _op(_readout("n", _fock), beam=_INT, cutoff=_INT.optional()),
    "qnd": _op(_readout("qnd", _qnd), beam=_INT),
    # gates
    "c_path": _op(_gate(lambda s, a, ancilla, **kw: gates.c_path(
        s, a["control"], a["target"], a["target_paths"], **kw)),
        **_TWO_QUBIT, target_paths=_PATH_PAIR),
    "merging": _op(_gate(lambda s, a, ancilla, **kw: gates.merging(
        s, a["photon"], a["source_paths"], a["dest"], ancilla=ancilla,
        companion_flip=a["companion_flip"], **kw)),
        photon=_PHOTON, source_paths=_PATH_PAIR, dest=_INT,
        companion_flip=_COMPANION_FLIP, ancilla=_ANCILLA),
    "cnot": _op(_gate(lambda s, a, ancilla, **kw: gates.cnot(
        s, a["control"], a["target"], ancilla=ancilla, **kw)), **_TWO_QUBIT),
    "cz": _op(_gate(lambda s, a, ancilla, **kw: gates.cz(
        s, a["control"], a["target"], ancilla=ancilla, **kw)), **_TWO_QUBIT),
    "c_phase": _op(_gate(lambda s, a, ancilla, **kw: gates.c_phase(
        s, a["control"], a["target"], a["phi"], ancilla=ancilla, **kw)),
        **_TWO_QUBIT, phi=_NUMBER),
    "controlled_pair": _op(_gate(lambda s, a, ancilla, **kw: gates.controlled_pair(
        s, a["control"], a["target"], a["u1"], a["u2"], ancilla=ancilla, **kw)),
        **_TWO_QUBIT, u1=_MATRIX2, u2=_MATRIX2),
    "two_qubit": _op(_gate(lambda s, a, ancilla, **kw: gates.synth_two_qubit(
        s, a["control"], a["target"], a["matrix"], ancilla=ancilla, **kw)),
        **_TWO_QUBIT, matrix=_MATRIX4),
    "fredkin": _op(_gate(lambda s, a, ancilla, **kw: gates.fredkin(
        s, a["control"], *a["targets"], ancilla=ancilla, **kw)),
        control=_PHOTON, targets=_PHOTON_PAIR),
    "toffoli": _op(_gate(lambda s, a, ancilla, **kw: gates.toffoli(
        s, *a["controls"], a["target"], ancilla=ancilla, **kw)),
        controls=_PHOTON_PAIR, target=_PHOTON),
    "multi_toffoli": _op(_gate(lambda s, a, ancilla, **kw: gates.multi_toffoli(
        s, a["controls"], a["target"], ancilla=ancilla, **kw)),
        controls=_PHOTON_LIST, target=_PHOTON),
}

# the run options; "mode" and "shots" are validated on their own
RUN_FIELDS = {
    "mode": _Kind("a run mode", lambda val: True).optional("exact"),
    "seed": _Kind("a non-negative integer", lambda val: _is_int(val) and val >= 0)
    .optional(0),
    "shots": _Kind("a shot count", lambda val: True).optional(1),
    "alpha": _NUMBER.optional(2.0),
    "theta": _NUMBER.optional(0.5),
    "detector": replace(_OBJECT, convert=lambda a: DetectorParams(**a),
                        fields={"eta": _Kind("a number in [0, 1]",
                                             lambda val: _is_number(val) and 0 <= val <= 1,
                                             float),
                                "gamma": _NUMBER, "theta_p": _NUMBER}).optional(None),
    "tail": _Kind("a number in (0, 1)",
                  lambda val: _is_number(val) and 0 < val < 1, float).optional(1e-12),
    "cutoff": _INT.optional(),
}
_PHOTON_FIELDS = {"id": _NAME, "path": _INT,
                  "state": _Kind("a polarization label or {H, V} amplitudes",
                                 _is_pol_state).optional("H")}


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


def _section(doc: dict, key: str, default):
    """A top-level section, of the type of its default."""
    val = doc.get(key, default)
    if not isinstance(val, type(default)):
        raise ParseError(f"section {key!r} must be a {type(default).__name__}", key)
    return val


def _parse_photons(entries: list) -> list:
    photons, ids, paths = [], set(), set()
    for i, ph in enumerate(entries):
        where = f"photons[{i}]"
        if not isinstance(ph, dict):
            raise ParseError("photon entries are objects", where)
        f = _fields(ph, _PHOTON_FIELDS, where)
        pid, path, spec = f["id"], f["path"], f["state"]
        if pid in ids:
            raise ValidationError(f"duplicate photon id {pid!r}", where)
        if path in paths:
            raise ValidationError(f"two photons start on path {path}", where)
        if isinstance(spec, dict):
            spec = tuple(_to_complex(spec.get(key, 0)) for key in ("H", "V"))
            norm = sum(abs(z) * abs(z) for z in spec)
            if abs(norm - 1.0) > 1e-9:
                raise ValidationError(
                    f"photon state not normalized (|amps|^2 = {norm:.6g})", where)
        ids.add(pid)
        paths.add(path)
        photons.append((pid, path, spec))
    return photons


def _check_instruction(ins, ids: set, where: str) -> None:
    """An instruction's fields have their kinds, and the photons it names
    are known and distinct."""
    if not isinstance(ins, dict) or "op" not in ins:
        raise ParseError("instructions are objects with an 'op' field", where)
    op = OPS.get(ins["op"]) if isinstance(ins["op"], str) else None
    if op is None:
        raise ValidationError(f"unknown op {ins['op']!r}", where)
    args = _fields(ins, op.fields, where)
    named = []
    for key, kind in op.fields.items():
        if kind.photons:
            named += [args[key]] if isinstance(args[key], str) else args[key]
    for i, pid in enumerate(named):
        if pid not in ids:
            raise ValidationError(f"unknown photon {pid!r}", where)
        if pid in named[:i]:
            raise ValidationError(f"photon {pid!r} named twice", where)


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

    photons = _parse_photons(_section(doc, "photons", []))
    beams = tuple(_COMPLEX.parse(b, "beams", f"beams[{i}]")
                  for i, b in enumerate(_section(doc, "beams", [])))
    extra = tuple(_INT.parse(p, "paths", f"paths[{i}]")
                  for i, p in enumerate(_section(doc, "paths", [])))
    run = _fields(_section(doc, "run", {}), RUN_FIELDS, "run")
    if run["mode"] not in ("exact", "sample"):
        raise ValidationError(f"unknown run mode {run['mode']!r}", "run.mode")
    shots = run["shots"]
    if not _is_int(shots) or shots < 1:
        raise ValidationError(f"shots must be an integer >= 1, got {shots!r}",
                              "run.shots")

    ids = {pid for pid, _, _ in photons}
    circuit = _section(doc, "circuit", [])
    for k, ins in enumerate(circuit):
        _check_instruction(ins, ids, f"circuit[{k}]")
    return CircuitProgram(
        photons=tuple(photons), beams=beams, extra_paths=extra,
        instructions=tuple(dict(ins) for ins in circuit), **run)


def override_run(program: CircuitProgram, **options) -> CircuitProgram:
    """`program` with the given run options, each checked by its kind."""
    fields = {key: RUN_FIELDS[key] for key in options}
    return replace(program, **_fields(options, fields, "command line"))


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
            "detector": program.detector and asdict(program.detector),
            "tail": program.tail,
            "cutoff": program.cutoff,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def initial_state(program: CircuitProgram) -> HybridState:
    return product_state(
        [(pid, path, spec) for pid, path, spec in program.photons],
        beams=program.beams, extra_paths=program.extra_paths)


def _tag_labels(records: Sequence[Record], k: int, start: int) -> list[Record]:
    out = []
    for rec in records:
        labels = rec.labels[:start] + tuple(
            (f"{k}.{lab[0]}",) + tuple(lab[1:]) for lab in rec.labels[start:])
        out.append(replace(rec, labels=labels))
    return out


def apply_program_instruction(records: list[Record], ins: dict, k: int,
                              program: CircuitProgram, mode, trace) -> list[Record]:
    op = OPS[ins["op"]]
    where = f"circuit[{k}] ({ins['op']})"
    args = _fields(ins, op.fields, where)
    for key in ("alpha", "theta"):
        if args[key] is None:
            args[key] = getattr(program, key)
    try:
        return op.run(records, args, _Step(k, program, mode, trace))
    except SimulatorError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


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
    trace = gates.ResourceTrace()
    checks = {"norms_ok": True, "probability_sum": None}

    def execute(mode) -> list[Record]:
        records = gates.initial_records(initial_state(program))
        for k, ins in enumerate(program.instructions):
            records = apply_program_instruction(records, ins, k, program,
                                                mode, trace)
        return records

    report = {"mode": program.mode}
    if program.mode == "exact":
        records = execute(gates.ExactMode(tail=program.tail))
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
            records = execute(gates.SampleMode(rng=rng, tail=program.tail))
            if len(records) != 1:
                records = gates.coalesce(records)
            rep = _record_report(records[0])
            rep["shot"] = shot
            shots.append(rep)
        checks["norms_ok"] = bool(all(abs(r["norm"] - 1.0) < 1e-8 for r in shots))
        checks["probability_ok"] = True
        report["seed"] = program.seed
        report["shots"] = shots
    resources = trace.report()
    report["resources"] = {**asdict(resources), "cumulative_qubus_attenuation":
                           float(f"{resources.cumulative_qubus_attenuation:.12g}")}
    report["checks"] = checks
    report["ok"] = bool(checks["norms_ok"] and checks["probability_ok"])
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
