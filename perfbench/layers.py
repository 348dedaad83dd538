"""Traced runs: spans around the calls into each qubusim layer.

Wrappers are installed from the benchmark's own files; no simulator file
changes.  A wrapped name is patched everywhere it is looked up: every
qubusim module whose namespace binds the same function object gets the
wrapper (``gates`` and ``circuits`` import ``enumerate_fock_outcomes``,
``coalesce`` and the elements by name), and the ``HybridState`` methods are
patched on the class.  ``multi_toffoli`` reaches the controlled-path
pipeline through ``_c_path_core``, so that name is wrapped as well and
counts as ``gates.c_path``.

A span is (name, start, end, parent span, op id).  Spans stay in memory
while the wrappers are installed; ``uninstall`` folds them into per-name
call counts and self times, and the spans of the last installed block are
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (home module, owner class or None, attribute)
TRACED = (
    [("state", "HybridState", name) for name in ("canonicalize", "inner")]
    + [("elements", None, name) for name in ("photon_bs", "pbs_hv", "pbs_diag", "phase_shift",
                                              "qubus_phase", "qubus_bs", "xpm")]
    + [("detection", None, name) for name in ("enumerate_fock_outcomes", "qnd_gate_outcomes",
                                               "draw_index")]
    + [("gates", None, name) for name in ("coalesce", "c_path", "_c_path_core", "merging",
                                           "controlled_pair", "fredkin", "multi_toffoli",
                                           "synth_two_qubit")]
    + [("kak", None, "kak_decompose")]
    + [("circuits", None, name) for name in ("parse_circuit", "run_program", "report_to_json")]
)

COMPOSITES = ("gates.controlled_pair", "gates.fredkin", "gates.multi_toffoli",
              "gates.synth_two_qubit")
C_PATH_SPANS = ("gates.c_path", "gates._c_path_core")
ELEMENTS = tuple(f"elements.{name}" for home, _, name in TRACED if home == "elements")


def _count_fock(counts, args, result):
    counts["detection.fock_outcomes"] += len(result)


def _count_coalesce(counts, args, result):
    counts["gates.coalesce.records_in"] += len(args[0])
    counts["gates.coalesce.records_out"] += len(result)


def _count_canonicalize(counts, args, result):
    n = len(args[0].branches)
    counts["state.canonicalize.branches_in"] += n
    counts["state.canonicalize.branches_out"] += len(result.branches)
    counts["state.peak_branches"] = max(counts["state.peak_branches"], n)


def _count_inner(counts, args, result):
    n = max(len(args[0].branches), len(args[1].branches))
    counts["state.peak_branches"] = max(counts["state.peak_branches"], n)


HOOKS = {
    "detection.enumerate_fock_outcomes": _count_fock,
    "gates.coalesce": _count_coalesce,
    "state.canonicalize": _count_canonicalize,
    "state.inner": _count_inner,
}


class Tracer:
    """Span recorder.  ``install`` patches the layers; ``uninstall`` restores
    them and folds the spans into per-name call counts and self times."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, op]
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)     # folded per span name
        self.self_s = defaultdict(float)
        self._stack = [-1]
        self._op = None
        self._patches: list[tuple] = []   # (owner, attribute, original)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self._op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        self.spans.clear()  # already folded
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "qubusim" or key.startswith("qubusim."))]
        for home, owner, attr in TRACED:
            home_mod = sys.modules[f"qubusim.{home}"]
            name = f"{home}.{attr}"
            if owner is not None:
                cls = getattr(home_mod, owner)
                original = vars(cls)[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(home_mod, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - covered[i]

    def run_op(self, op_id, call):
        """Run one op under a root span ``bench.op``."""
        self._op = op_id
        try:
            return self._wrap("bench.op", call)()
        finally:
            self._op = None

    def write_spans(self, path) -> None:
        """Tab-separated spans; times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_us\tend_us\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{name}\t{(t0 - origin) * 1e6:.1f}\t"
                         f"{(t1 - origin) * 1e6:.1f}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, n_ops: int, overhead: tuple[float, float]) -> dict:
    """Per-layer metrics, normalized per op, as name -> (value, unit)."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def per_op(x):
        return x / n_ops

    def span_calls(*names):
        return (per_op(sum(calls[n] for n in names)), "count/op")

    def span_self(*names):
        return (per_op(sum(self_s[n] for n in names)), "s/op")

    overhead_ms, overhead_ratio = overhead
    return {
        "detection.fock_outcomes": (per_op(counts["detection.fock_outcomes"]), "count/op"),
        "detection.enumerate_fock_outcomes.calls": span_calls("detection.enumerate_fock_outcomes"),
        "detection.enumerate_fock_outcomes.self_s": span_self("detection.enumerate_fock_outcomes"),
        "detection.qnd_gate_outcomes.calls": span_calls("detection.qnd_gate_outcomes"),
        "detection.qnd_gate_outcomes.self_s": span_self("detection.qnd_gate_outcomes"),
        "detection.draw_index.calls": span_calls("detection.draw_index"),
        "gates.coalesce.calls": span_calls("gates.coalesce"),
        "gates.coalesce.self_s": span_self("gates.coalesce"),
        "gates.coalesce.records_in": (per_op(counts["gates.coalesce.records_in"]), "count/op"),
        "gates.coalesce.keep_ratio": (_ratio(counts["gates.coalesce.records_out"],
                                             counts["gates.coalesce.records_in"]), "ratio"),
        "state.canonicalize.calls": span_calls("state.canonicalize"),
        "state.canonicalize.self_s": span_self("state.canonicalize"),
        "state.canonicalize.branches_in": (per_op(counts["state.canonicalize.branches_in"]),
                                           "count/op"),
        "state.canonicalize.keep_ratio": (_ratio(counts["state.canonicalize.branches_out"],
                                                 counts["state.canonicalize.branches_in"]),
                                          "ratio"),
        "state.inner.calls": span_calls("state.inner"),
        "state.inner.self_s": span_self("state.inner"),
        "state.peak_branches": (float(counts["state.peak_branches"]), "count"),
        "elements.calls": span_calls(*ELEMENTS),
        "elements.xpm.self_s": span_self("elements.xpm"),
        "elements.photon_bs.self_s": span_self("elements.photon_bs"),
        "elements.pbs_diag.self_s": span_self("elements.pbs_diag"),
        "gates.c_path.calls": span_calls("gates._c_path_core"),
        "gates.c_path.self_s": span_self(*C_PATH_SPANS),
        "gates.merging.calls": span_calls("gates.merging"),
        "gates.merging.self_s": span_self("gates.merging"),
        "gates.composite.self_s": span_self(*COMPOSITES),
        "kak.kak_decompose.calls": span_calls("kak.kak_decompose"),
        "kak.kak_decompose.self_s": span_self("kak.kak_decompose"),
        "circuits.parse_circuit.self_s": span_self("circuits.parse_circuit"),
        "circuits.run_program.self_s": span_self("circuits.run_program"),
        "circuits.report_to_json.self_s": span_self("circuits.report_to_json"),
        "trace.overhead_ms": (overhead_ms, "ms"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
