"""Spans around calls into photonfield, and the per-layer metrics derived from them.

The worker installs a Tracer for the traced half of a --trace 1 run.  The
tracer wraps public functions of every package module from outside, and
rebinds each wrapped function in every photonfield module that imported
it (for example ensembles.field_mode_coefficients), so internal calls are
seen too.  Spans stay in memory until the run ends and are then written to
one JSON file; run.py derives every per-layer metric from that file.

A span is [name, start, end, parent, pass, attr]: name is an index into
the file's name table, parent the index of the enclosing span (-1 at top
level), pass the pass it belongs to, and attr a per-call count or key
(records, nnz, lines, coefficient key, state identity) or null.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "polarization", "spin", "classical", "fock", "fields", "ensembles")

# Functions wrapped in each module; cli's checks are wrapped through
# cli.CHECK_RUNNERS and SparseOperator.__matmul__ on the class.
TRACED = {
    "cli": ("parse_scenario", "build_state", "run_verify", "run_expect",
            "run_vacuum_scan", "run_dump_operator"),
    "polarization": ("make_triad", "check_relations", "completeness_matrix"),
    "spin": ("helicity_states",),
    "classical": ("rotating_vectors", "build_tensor", "boost", "null_residuals", "kinematics"),
    "fock": ("build_basis", "annihilation", "creation", "identity", "total_number",
             "safe_projector", "commutator", "export_operator"),
    "fields": ("field_mode_coefficients", "field", "field_derivative", "field_number_commutator",
               "observable_H", "observable_P", "observable_S", "quadratic_H_from_fields",
               "quadratic_P_from_fields", "quadratic_S_from_fields", "check_maxwell",
               "check_derivative_relations", "field_commutator_closed_form", "zero_point"),
    "ensembles": ("amplitude_profile", "field_expectation_closed_form", "expectation",
                  "expectation_grid", "write_grid_csv", "vacuum_field_square",
                  "vacuum_field_square_scan", "coherent_profile", "superposition", "vacuum"),
}
CHECKS = ("polarization", "helicity", "ladder", "observables", "maxwell", "commutators",
          "expectations")
COMMANDS = ("parse_scenario", "build_state", "run_verify", "run_expect", "run_vacuum_scan",
            "run_dump_operator")

CALLS_AND_SELF = (
    "polarization.make_triad", "polarization.check_relations", "polarization.completeness_matrix",
    "spin.helicity_states",
    "classical.rotating_vectors", "classical.build_tensor", "classical.boost",
    "classical.null_residuals",
    "fock.SparseOperator.matmul", "fock.commutator",
    "fields.field", "fields.field_derivative", "fields.quadratic_H_from_fields",
    "fields.quadratic_P_from_fields", "fields.quadratic_S_from_fields",
    "fields.field_mode_coefficients",
    "ensembles.expectation", "ensembles.field_expectation_closed_form",
    "ensembles.expectation_grid", "ensembles.write_grid_csv",
    "ensembles.vacuum_field_square_scan",
)
SELF_ONLY = ("fock.build_basis", "fock.export_operator", "fields.check_maxwell",
             "fields.check_derivative_relations", "fields.field_commutator_closed_form")
CALLS_ONLY = ("fock.safe_projector", "ensembles.amplitude_profile")


def _per_layer_metrics() -> tuple[tuple[str, str, str], ...]:
    """(name, unit, better) of every per-layer metric, in the order printed."""
    out = [(f"cli.check.{c}_s", "s", "lower") for c in CHECKS]
    out += [(f"cli.{c}_s", "s", "lower") for c in COMMANDS]
    out += [("cli.records", "count", "higher"), ("cli.records_failed", "count", "lower")]
    for name in CALLS_AND_SELF:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(f"{name}.self_s", "s", "lower") for name in SELF_ONLY]
    out += [(f"{name}.calls", "count", "lower") for name in CALLS_ONLY]
    out += [
        ("fields.field.nnz", "count", "lower"),
        ("fock.export_operator.lines", "count", "lower"),
        ("fields.field_mode_coefficients.distinct_ratio", "ratio", "higher"),
        ("ensembles.amplitude_profile.useful_ratio", "ratio", "higher"),
    ]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("trace.overhead_s", "s", "lower"), ("trace.coverage", "ratio", "higher")]
    return tuple(out)


PER_LAYER_METRICS = _per_layer_metrics()


# ---------------------------------------------------------------------------
# recording (worker side)


class Tracer:
    """In-memory span recorder; see the module docstring for the span layout."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.passes: list[list] = []  # [pass index, start, end]
        self._stack: list[int] = []
        self._pass = -1
        self._alive: dict[int, object] = {}  # keeps ids of seen states unique within a pass

    def begin_pass(self, index: int) -> None:
        self._pass = index
        self.passes.append([index, perf_counter(), None])

    def end_pass(self) -> None:
        self.passes[-1][2] = perf_counter()
        self._alive.clear()

    def wrap(self, name: str, fn, attr=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name_id, start, end, parent, self._pass, None]
            if attr is not None:
                spans[index][5] = attr(result, *args, **kwargs)
            return result

        return traced

    def _state_id(self, result, state) -> int:
        self._alive[id(state)] = state
        return id(state)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the TRACED functions, the check runners and SparseOperator.__matmul__."""
        from photonfield import cli, fock
        from photonfield.fields import FieldKind

        def coefficient_key(result, basis, kind, x, dt=0, dr=(0, 0, 0)):
            return f"{FieldKind(kind).value}|{x.r.tolist()}|{x.t!r}|{dt}|{tuple(dr)}"

        attrs = {
            "fields.field": lambda result, *a, **k: sum(op.matrix.nnz for op in result),
            "fields.field_mode_coefficients": coefficient_key,
            "fock.export_operator": lambda result, op, stream: op.matrix.nnz + 1,
            "ensembles.amplitude_profile": self._state_id,
        }
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "photonfield"]
        undo: list[tuple] = []

        def rebind(original, wrapped) -> None:
            for module in modules:
                for attr_name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr_name, value))
                        setattr(module, attr_name, wrapped)

        for layer, names in TRACED.items():
            module = sys.modules[f"photonfield.{layer}"]
            for name in names:
                original = getattr(module, name)
                rebind(original, self.wrap(f"{layer}.{name}", original, attrs.get(f"{layer}.{name}")))
        for check, original in list(cli.CHECK_RUNNERS.items()):
            wrapped = self.wrap(
                f"cli.check.{check}", original,
                lambda records, ctx: [len(records), sum(not r.passed for r in records)],
            )
            undo.append((cli.CHECK_RUNNERS, check, original))
            cli.CHECK_RUNNERS[check] = wrapped
            rebind(original, wrapped)
        matmul = fock.SparseOperator.__matmul__
        undo.append((fock.SparseOperator, "__matmul__", matmul))
        fock.SparseOperator.__matmul__ = self.wrap("fock.SparseOperator.matmul", matmul)
        try:
            yield self
        finally:
            for owner, attr_name, value in reversed(undo):
                if isinstance(owner, dict):
                    owner[attr_name] = value
                else:
                    setattr(owner, attr_name, value)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "passes": self.passes, "spans": self.spans}))


# ---------------------------------------------------------------------------
# derivation (harness side)


def _ratio(useful: int, attempted: int) -> float:
    return useful / attempted if attempted else 0.0


def _pass_values(calls, total, self_time, attrs, coverage: float) -> dict[str, float]:
    v: dict[str, float] = {}
    for c in CHECKS:
        v[f"cli.check.{c}_s"] = total[f"cli.check.{c}"]
    for c in COMMANDS:
        v[f"cli.{c}_s"] = total[f"cli.{c}"]
    records = [a for c in CHECKS for a in attrs[f"cli.check.{c}"]]
    v["cli.records"] = sum(r[0] for r in records)
    v["cli.records_failed"] = sum(r[1] for r in records)
    for name in CALLS_AND_SELF:
        v[f"{name}.calls"] = calls[name]
        v[f"{name}.self_s"] = self_time[name]
    for name in SELF_ONLY:
        v[f"{name}.self_s"] = self_time[name]
    for name in CALLS_ONLY:
        v[f"{name}.calls"] = calls[name]
    v["fields.field.nnz"] = sum(attrs["fields.field"])
    v["fock.export_operator.lines"] = sum(attrs["fock.export_operator"])
    keys = attrs["fields.field_mode_coefficients"]
    v["fields.field_mode_coefficients.distinct_ratio"] = _ratio(len(set(keys)), len(keys))
    states = attrs["ensembles.amplitude_profile"]
    v["ensembles.amplitude_profile.useful_ratio"] = _ratio(len(set(states)), len(states))
    for layer in LAYERS:
        v[f"{layer}.self_s"] = sum(t for n, t in self_time.items() if n.split(".")[0] == layer)
    v["trace.coverage"] = coverage
    return v


def derive_metrics(trace_path: Path, passes: list[dict]) -> dict[str, list[float]]:
    """Per-layer metric -> its value in each traced pass, read from a span file.

    passes is the worker's pass list.  Self time is a span's duration minus
    the durations of its direct children.  trace.overhead_s is the median
    wall time of the traced passes minus that of the untraced passes.
    """
    trace = json.loads(trace_path.read_text())
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_pass = {
        index: (Counter(), defaultdict(float), defaultdict(float), defaultdict(list))
        for index, _, _ in trace["passes"]
    }
    top_level: dict[int, float] = defaultdict(float)
    for i, (name_id, start, end, parent, index, attr) in enumerate(spans):
        calls, total, self_time, attrs = by_pass[index]
        name, duration = names[name_id], end - start
        calls[name] += 1
        total[name] += duration
        self_time[name] += duration - child[i]
        if attr is not None:
            attrs[name].append(attr)
        if parent < 0:
            top_level[index] += duration
    per_pass = [
        _pass_values(*by_pass[index], top_level[index] / (end - start))
        for index, start, end in trace["passes"]
    ]
    values = {name: [p[name] for p in per_pass] for name in per_pass[0]}
    walls = {traced: [p["wall_s"] for p in passes if p["traced"] is traced] for traced in (True, False)}
    values["trace.overhead_s"] = [statistics.median(walls[True]) - statistics.median(walls[False])]
    return values
