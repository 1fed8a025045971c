"""In-memory spans around the program's public functions.

The tracer replaces module attributes with timing wrappers, so only calls
that go through the wrapped names are seen.  Each name is wrapped in the
module that calls it (``jband_sim.experiments.occupation_profile``, not
``jband_sim.propagator.occupation_profile``), because the callers hold their
own references.  A target that a later version renamed or removed is
recorded as absent instead of failing the run.
"""
from __future__ import annotations

import importlib
import os
import statistics
import time


def _row_length(args, result):
    return len(result)


def _file_bytes(args, result):
    return os.path.getsize(result)


def _study_name(args):
    return getattr(args[0], "name", "?") if args else "?"


# (module whose attribute is replaced, attribute, span name, extra count, label)
TARGETS = (
    ("jband_sim.propagator", "bessel_j_row", "specfun.bessel_j_row", _row_length, None),
    ("jband_sim.specfun", "bessel_j_row", "specfun.bessel_j_row", _row_length, None),
    ("jband_sim.propagator", "validate_params", "core.validate_params", None, None),
    ("jband_sim.experiments", "validate_params", "core.validate_params", None, None),
    ("jband_sim.measures", "validate_params", "core.validate_params", None, None),
    ("jband_sim.cli", "validate_params", "core.validate_params", None, None),
    ("jband_sim.propagator", "make_window", "core.make_window", None, None),
    ("jband_sim.experiments", "occupation_profile", "propagator.occupation_profile", None, None),
    ("jband_sim.propagator", "occupation_profile", "propagator.occupation_profile", None, None),
    ("jband_sim.cli", "occupation_profile", "propagator.occupation_profile", None, None),
    ("jband_sim.experiments", "entropy_report", "measures.entropy_report", None, None),
    ("jband_sim.cli", "entropy_report", "measures.entropy_report", None, None),
    ("jband_sim.experiments", "concurrence_vs_size_curve",
     "measures.concurrence_vs_size_curve", None, None),
    ("jband_sim.experiments", "geometric_entropy", "multipartite.geometric_entropy", None, None),
    ("jband_sim.multipartite", "geometric_entropy", "multipartite.geometric_entropy", None, None),
    ("jband_sim.cli", "geometric_entropy", "multipartite.geometric_entropy", None, None),
    ("jband_sim.experiments", "run_experiment_outputs",
     "experiments.run_experiment_outputs", None, _study_name),
    ("jband_sim.cli", "run_experiment_outputs",
     "experiments.run_experiment_outputs", None, _study_name),
    ("jband_sim.cli", "parse_config", "config.parse_config", None, None),
    ("jband_sim.output", "render_csv", "output.render_csv", None, None),
    ("jband_sim.output", "render_svg", "output.render_svg", None, None),
    ("jband_sim.output", "write_csv", "output.write", _file_bytes, None),
    ("jband_sim.cli", "write_csv", "output.write", _file_bytes, None),
    ("jband_sim.cli", "emit_svg", "output.write", _file_bytes, None),
    ("jband_sim.cli", "main", "cli.main", None, None),
)

# A span record: [name, parent index, pass, start ns, end ns, child ns, extra, label]
NAME, PARENT, PASS, START, END, CHILD, EXTRA, LABEL = range(8)


class Tracer:
    """Records one span per wrapped call; ``pass_id`` tags the current pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            rec = [name, stack[-1] if stack else -1, self.pass_id, clock(), 0, 0, 0,
                   label(args) if label else None]
            spans.append(rec)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
                if stack:
                    spans[stack[-1]][CHILD] += rec[END] - rec[START]
            if extra:
                rec[EXTRA] = extra(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        found = set()
        names = []
        for module_name, attr, name, extra, label in TARGETS:
            if name not in names:
                names.append(name)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, extra, label))
            found.add(name)
        self.absent = [n for n in names if n not in found]

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def per_pass(self) -> dict[int, dict[str, list[float]]]:
        """pass -> name -> [calls, inclusive s, self s, extra]; labels add 'name:label'."""
        table: dict[int, dict[str, list[float]]] = {}
        for rec in self.spans:
            dur = rec[END] - rec[START]
            keys = [rec[NAME]]
            if rec[LABEL] is not None:
                keys.append(f"{rec[NAME]}:{rec[LABEL]}")
            agg = table.setdefault(rec[PASS], {})
            for key in keys:
                row = agg.setdefault(key, [0, 0.0, 0.0, 0])
                row[0] += 1
                row[1] += dur * 1e-9
                row[2] += (dur - rec[CHILD]) * 1e-9
                row[3] += rec[EXTRA]
        return table

    def dump(self, pass_id: int = 0) -> dict:
        """The spans of one pass, times in ns from its first span; the
        per-pass totals of ``per_pass`` cover the others."""
        first = next((k for k, r in enumerate(self.spans) if r[PASS] == pass_id), 0)
        spans = [r for r in self.spans if r[PASS] == pass_id]
        t0 = spans[0][START] if spans else 0
        return {
            "fields": ["name", "parent", "pass", "start_ns", "end_ns", "self_ns", "extra", "label"],
            "spans": [[r[NAME], r[PARENT] - first if r[PARENT] >= first else -1, r[PASS],
                       r[START] - t0, r[END] - t0, r[END] - r[START] - r[CHILD], r[EXTRA],
                       r[LABEL]] for r in spans],
        }


def layer_metrics(tracer: Tracer, passes: list[int], studies) -> dict[str, float]:
    """Per-layer metrics: counts per pass, times as the median over passes."""
    table = tracer.per_pass()

    # A per_pass row holds: 0 calls, 1 inclusive s, 2 self s, 3 extra count.
    def series(key, field):
        return [table.get(p, {}).get(key, [0, 0.0, 0.0, 0])[field] for p in passes]

    def med(key, field):
        return statistics.median(series(key, field))

    def per_call_us(key):
        return statistics.median(
            (s / c * 1e6 if c else 0.0) for s, c in zip(series(key, 2), series(key, 0)))

    m = {
        "specfun.bessel_j_row.calls": med("specfun.bessel_j_row", 0),
        "specfun.bessel_j_row.orders": med("specfun.bessel_j_row", 3),
        "specfun.bessel_j_row.self_s": med("specfun.bessel_j_row", 2),
        "specfun.bessel_j_row.us_per_call": per_call_us("specfun.bessel_j_row"),
        "core.validate_params.calls": med("core.validate_params", 0),
        "core.validate_params.self_s": med("core.validate_params", 2),
        "core.make_window.calls": med("core.make_window", 0),
        "core.make_window.self_s": med("core.make_window", 2),
        "propagator.occupation_profile.calls": med("propagator.occupation_profile", 0),
        "propagator.occupation_profile.self_s": med("propagator.occupation_profile", 2),
        "measures.entropy_report.calls": med("measures.entropy_report", 0),
        "measures.entropy_report.self_s": med("measures.entropy_report", 2),
        "measures.concurrence_vs_size_curve.self_s":
            med("measures.concurrence_vs_size_curve", 2),
        "multipartite.geometric_entropy.calls": med("multipartite.geometric_entropy", 0),
        "multipartite.geometric_entropy.self_s": med("multipartite.geometric_entropy", 2),
        "experiments.run_experiment_outputs.self_s":
            med("experiments.run_experiment_outputs", 2),
        "config.parse_config.s": med("config.parse_config", 1),
        "output.render_csv.s": med("output.render_csv", 1),
        "output.render_svg.s": med("output.render_svg", 1),
        "output.write.s": med("output.write", 2),
        "output.bytes": med("output.write", 3),
        "cli.main.self_s": med("cli.main", 2),
    }
    for study in studies:
        m[f"experiments.{study}.s"] = med(f"experiments.run_experiment_outputs:{study}", 1)
    return m
