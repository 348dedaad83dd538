"""Seeded workloads of the qubusim benchmark.

A workload is a fixed cycle of op kinds.  The seed fixes every input of
every op: op ``i`` draws its random states, Haar unitaries, phases and
sampling seeds from ``numpy.random.default_rng([seed, i])``, so an op's
inputs do not depend on how many ops ran before it, and the simulator only
ever receives those generated inputs.

Why each cycle looks the way it does (beyond the layer it is meant to load):
runs always end on a whole cycle, so the share of each kind is exact in
every run, and each cycle is built so that its median latency falls inside
one kind's cluster rather than on the gap between two clusters, where it
would swing from run to run.  For the same reason the tail percentile is
fixed per workload, inside a cluster, rather than following the sample
count; ``min_cycles`` guarantees at least ten samples beyond it.

Every op carries its own check.  Gate ops: the record probabilities sum to 1
within 1e-9, and every record not marked ambiguous (see ``is_ambiguous``) has
``verify.record_fidelity`` at least 1 - 1e-9 against ``verify.apply_ideal``
of the gate.  Sampled shots: ``report["ok"]``, one shot, and the shot's
state matches the ideal gate output to the same fidelity.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

PROBABILITY_TOL = 1e-9
FIDELITY_FLOOR = 1.0 - 1e-9
AMBIGUOUS = "none (ambiguous)"
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``call()`` is the timed part, ``check``
    returns None when the output is right and a reason otherwise."""

    index: int
    kind: str
    inputs: tuple            # plain values fixing the op, for the self-test
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    known_red: bool = False  # expected to raise a SimulatorError today


@dataclass(frozen=True)
class Workload:
    name: str
    mix: str                 # the op mix, in words
    cycle: tuple             # one entry per op kind, in cycle order
    make_op: Callable        # (ctx, index, kind, rng) -> Op
    trace_cycles: int        # cycles per pass of a traced run
    tail_pct: float          # op_tail_ms percentile
    min_cycles: int = 1      # a timed run never stops before this many


# -- seeded inputs ---------------------------------------------------------------

def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def random_qubit(rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure qubit state (H, V amplitudes)."""
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _rounded(values) -> tuple:
    return tuple(complex(round(z.real, 15), round(z.imag, 15))
                 for z in np.asarray(values, dtype=complex).ravel())


# -- checks ---------------------------------------------------------------------

def is_ambiguous(rec) -> bool:
    """A QND readout the gate could not correct.  Merging marks these with
    the correction ``none (ambiguous)``; an ambiguous controlled-path readout
    carries only its ``("qnd", "ambiguous")`` label, which is how the test
    suite recognizes it too."""
    return AMBIGUOUS in rec.corrections or any("ambiguous" in str(lab) for lab in rec.labels)


def check_records(verify, records, qubits, ideal_vec) -> Optional[str]:
    total = sum(r.probability for r in records)
    if abs(total - 1.0) > PROBABILITY_TOL:
        return f"record probabilities sum to {total!r}"
    for rec in records:
        if is_ambiguous(rec):
            continue
        f = verify.record_fidelity(rec, qubits, ideal_vec)
        if not f >= FIDELITY_FLOOR:
            return f"record {rec.labels} has fidelity {f!r}"
    return None


def _gate_op(ctx, index, kind, inputs, photons, vectors, gate, ideal,
             known_red=False) -> Op:
    """`photons` are (id, home path) pairs, `vectors` their input states and
    `gate(state)` runs the gate; the first photon is the most significant
    qubit of the ideal matrix."""
    qs = ctx["qs"]
    state = qs.state.product_state(
        [(pid, path, {"H": v[0], "V": v[1]}) for (pid, path), v in zip(photons, vectors)])
    vec = vectors[0]
    for v in vectors[1:]:
        vec = np.kron(vec, v)
    ideal_vec = qs.verify.apply_ideal(ideal, vec)
    return Op(index=index, kind=kind, inputs=inputs,
              call=lambda: gate(state),
              check=lambda res: check_records(qs.verify, res.outcomes, photons, ideal_vec),
              known_red=known_red)


# -- bright-bus: large mean photon number, few branches ----------------------------

BRIGHT_CYCLE = (("cnot", 20.0, 0.5), ("cz", 1000.0, 0.01), ("c_phase", 20.0, 0.5),
                ("cnot", 1000.0, 0.01), ("cz", 20.0, 0.5), ("c_phase", 1000.0, 0.01))


def bright_bus_op(ctx, index, kind, rng) -> Op:
    qs = ctx["qs"]
    gate, alpha, theta = kind
    target = random_qubit(rng)
    photons = (("C", 0), ("T", 1))
    if gate == "c_phase":
        phi = float(rng.uniform(0.0, 2 * math.pi))
        ideal = qs.verify.ideal_c_phase(phi)
        run = lambda s: qs.gates.c_phase(s, "C", "T", phi, alpha, theta)
    else:
        phi = None
        ideal = qs.verify.ideal_cnot() if gate == "cnot" else qs.verify.ideal_cz()
        run = lambda s: getattr(qs.gates, gate)(s, "C", "T", alpha, theta)
    return _gate_op(ctx, index, f"{gate} a={alpha:g} th={theta:g}",
                    (kind, _rounded(target), phi), photons, (PLUS, target), run, ideal)


# -- wide-branch: many branches, few photons on the bus ----------------------------


WIDE_CYCLE = ("toffoli", "fredkin", "multi_toffoli_3", "multi_toffoli_4", "synth_two_qubit")
WIDE_ALPHA, WIDE_THETA = 2.0, 0.5


def wide_branch_op(ctx, index, kind, rng) -> Op:
    qs = ctx["qs"]
    g, v = qs.gates, qs.verify
    a, th = WIDE_ALPHA, WIDE_THETA
    unitary = None
    if kind == "synth_two_qubit":
        unitary = haar_unitary(rng)
        n, ideal = 2, unitary
        run = lambda s: g.synth_two_qubit(s, "Q0", "Q1", unitary, a, th)
    elif kind == "toffoli":
        n, ideal = 3, v.ideal_toffoli()
        run = lambda s: g.toffoli(s, "Q0", "Q1", "Q2", a, th)
    elif kind == "fredkin":
        n, ideal = 3, v.ideal_fredkin()
        run = lambda s: g.fredkin(s, "Q0", "Q1", "Q2", a, th)
    else:
        k = int(kind.rsplit("_", 1)[1])
        n, ideal = k + 1, v.ideal_multi_toffoli(k)
        controls = [f"Q{i}" for i in range(k)]
        run = lambda s: g.multi_toffoli(s, controls, f"Q{k}", a, th)
    vectors = tuple(random_qubit(rng) for _ in range(n))
    photons = tuple((f"Q{i}", i) for i in range(n))
    inputs = (kind, tuple(_rounded(x) for x in vectors),
              None if unitary is None else _rounded(unitary))
    return _gate_op(ctx, index, kind, inputs, photons, vectors, run, ideal)


# -- sampled-shots: one shot through the circuit front end ---------------------------

# Two of every three shots run at alpha 2: the median then sits inside the
# toffoli/alpha-2 cluster instead of on the gap to the alpha-20 shots, and
# p98 inside the toffoli/alpha-20 cluster.
SAMPLED_CYCLE = (("cnot", 2.0), ("toffoli", 2.0), ("fredkin", 2.0),
                 ("cnot", 20.0), ("toffoli", 20.0), ("fredkin", 20.0),
                 ("cnot", 2.0), ("toffoli", 2.0), ("fredkin", 2.0))
CIRCUIT_FILES = ("cnot", "toffoli", "fredkin")
_LABEL_AMPS = {"H": (1.0, 0.0), "V": (0.0, 1.0),
               "+": (1 / math.sqrt(2), 1 / math.sqrt(2)),
               "-": (1 / math.sqrt(2), -1 / math.sqrt(2))}


def load_circuits(root: Path) -> dict:
    """The shipped one-gate circuit documents, keyed by file stem."""
    docs = {}
    for stem in CIRCUIT_FILES:
        doc = json.loads((root / "circuits" / f"{stem}.json").read_text())
        ops = [ins.get("op") for ins in doc.get("circuit", [])]
        if ops != [stem]:
            raise ValueError(f"circuits/{stem}.json is not a single {stem} instruction")
        docs[stem] = doc
    return docs


def _doc_amplitudes(spec) -> np.ndarray:
    if isinstance(spec, str):
        return np.array(_LABEL_AMPS[spec.upper()], dtype=complex)
    return np.array([complex(*spec["H"]), complex(*spec["V"])])


def _shot_state(qs, amplitudes: dict):
    """Rebuild a HybridState from a report's amplitude table."""
    photons, branches, paths = None, [], set()
    for key, (re, im) in amplitudes.items():
        if " | " in key:
            raise ValueError("shot state still holds live beams")
        ids, config = [], []
        for token in key.split():
            pid, mode = token.split("@")
            ids.append(pid)
            if mode == "-":
                config.append(None)
            else:
                path, pol = mode.split(":")
                config.append((int(path), "HV".index(pol)))
                paths.add(int(path))
        if photons is None:
            photons = tuple(ids)
        elif tuple(ids) != photons:
            raise ValueError("amplitude table mixes photon orders")
        branches.append(qs.state.Branch(complex(re, im), tuple(config), ()))
    return qs.state.HybridState(photons=photons, paths=frozenset(paths),
                                n_beams=0, branches=tuple(branches))


def check_shot(qs, text: str, qubits, ideal_vec) -> Optional[str]:
    report = json.loads(text)
    if report.get("ok") is not True:
        return f"report checks failed: {report.get('checks')}"
    shots = report.get("shots", [])
    if len(shots) != 1:
        return f"expected one shot, got {len(shots)}"
    shot = shots[0]
    ancilla = tuple(shot["ancilla"]) if shot.get("ancilla") else None
    rec = qs.gates.Record(labels=(), probability=1.0,
                          state=_shot_state(qs, shot["amplitudes"]), ancilla=ancilla)
    f = qs.verify.record_fidelity(rec, qubits, ideal_vec)
    if not f >= FIDELITY_FLOOR:
        return f"shot state has fidelity {f!r}"
    return None


def sampled_shots_op(ctx, index, kind, rng) -> Op:
    qs = ctx["qs"]
    stem, alpha = kind
    doc = copy.deepcopy(ctx["circuits"][stem])
    shot_seed = int(rng.integers(0, 2 ** 31))
    doc["run"].update(mode="sample", shots=1, seed=shot_seed, alpha=alpha)
    text = json.dumps(doc)
    qubits = [(ph["id"], ph["path"]) for ph in doc["photons"]]
    vec = np.array([1.0 + 0j])
    for ph in doc["photons"]:
        vec = np.kron(vec, _doc_amplitudes(ph.get("state", "H")))
    ideal = {"cnot": qs.verify.ideal_cnot, "toffoli": qs.verify.ideal_toffoli,
             "fredkin": qs.verify.ideal_fredkin}[stem]()
    ideal_vec = qs.verify.apply_ideal(ideal, vec)
    c = qs.circuits

    def call():
        return c.report_to_json(c.run_program(c.parse_circuit(text)))

    return Op(index=index, kind=f"{stem} a={alpha:g}", inputs=(kind, shot_seed),
              call=call, check=lambda out: check_shot(qs, out, qubits, ideal_vec))


# -- qnd-readout: the POVM path ------------------------------------------------------

# (alpha, gamma) at eta 0.9, theta_p 0.1, theta 0.5.  gamma 60 at alpha 2 is
# an ordinary setting that the default k_max turns into BinsOverlap (Poisson
# peaks 16 and 17 fail the 3-sigma guard); those ops stay in the mix and
# count as failures for as long as they raise.
QND_SETTINGS = ((1.5, 200.0), (2.0, 100.0), (1.5, 100.0), (2.0, 60.0))
QND_CYCLE = tuple((gate, alpha, gamma) for alpha, gamma in QND_SETTINGS
                  for gate in ("cnot", "cz"))
QND_ETA, QND_THETA_P, QND_THETA = 0.9, 0.1, 0.5


def qnd_readout_op(ctx, index, kind, rng) -> Op:
    qs = ctx["qs"]
    gate, alpha, gamma = kind
    target = random_qubit(rng)
    mode = qs.gates.QndMode(qs.detection.DetectorParams(QND_ETA, gamma, QND_THETA_P))
    ideal = qs.verify.ideal_cnot() if gate == "cnot" else qs.verify.ideal_cz()
    run = lambda s: getattr(qs.gates, gate)(s, "C", "T", alpha, QND_THETA, mode=mode)
    return _gate_op(ctx, index, f"{gate} a={alpha:g} gamma={gamma:g}",
                    (kind, _rounded(target)), (("C", 0), ("T", 1)), (PLUS, target),
                    run, ideal, known_red=gamma == 60.0)


WORKLOADS = {w.name: w for w in (
    Workload("bright-bus",
             "cnot, cz, c_phase (seeded phi) in turn, |+> control, seeded target; "
             "alternating alpha=20/theta=0.5 and alpha=1000/theta=0.01",
             BRIGHT_CYCLE, bright_bus_op, trace_cycles=1, tail_pct=75, min_cycles=7),
    Workload("wide-branch",
             "toffoli, fredkin, multi_toffoli k=3, k=4, synth_two_qubit (seeded Haar U(4)); "
             "seeded qubits, alpha=2, theta=0.5",
             WIDE_CYCLE, wide_branch_op, trace_cycles=1, tail_pct=70, min_cycles=7),
    Workload("sampled-shots",
             "parse_circuit + run_program + report_to_json on circuits/{cnot,toffoli,fredkin}"
             ".json, sample mode, shots=1, seeded shot seed; alpha=2 twice per alpha=20",
             SAMPLED_CYCLE, sampled_shots_op, trace_cycles=4, tail_pct=98, min_cycles=60),
    Workload("qnd-readout",
             "QndMode cnot and cz, |+> control, seeded target, eta=0.9, theta_p=0.1, "
             "theta=0.5; (alpha, gamma) in (1.5,200) (2,100) (1.5,100) (2,60)",
             QND_CYCLE, qnd_readout_op, trace_cycles=1, tail_pct=75, min_cycles=7),
)}


def prepare(workload: Workload, qs, root: Path) -> dict:
    """Per-run context: the loaded modules and any parsed input files."""
    ctx = {"qs": qs}
    if workload.name == "sampled-shots":
        ctx["circuits"] = load_circuits(root)
    return ctx


def make_cycle(workload: Workload, ctx, seed: int, cycle_no: int) -> list[Op]:
    n = len(workload.cycle)
    return [workload.make_op(ctx, i, workload.cycle[i % n], op_rng(seed, i))
            for i in range(cycle_no * n, (cycle_no + 1) * n)]
