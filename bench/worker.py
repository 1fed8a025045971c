"""Benchmark worker: runs one workload of the program and reports raw samples.

The runner (``run.py``) starts this script, times it until it prints
``READY`` (the end of set-up), and reads the one JSON line it prints last.
The worker imports only the program and the standard library, so its set-up
time and peak memory hold no trace of the reference libraries the runner's
checks use.

    python3 bench/worker.py --workload figures --seed 1 --seconds 10 \
        --trace 0 --scratch bench-out/tmp/w1 [--setup-only]
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (the benchmark's own module, next to this file)


def child_env() -> dict[str, str]:
    """Environment of every child interpreter: the checkout's sources first."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(argv: list[str]) -> dict:
    """Run one child to its exit; wall time from spawn to exit and its peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=child_env(), cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"ms": elapsed * 1e3, "rc": proc.returncode,
            "out": out.decode("utf-8", "replace"), "rss_kb": usage.ru_maxrss}


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


class FileWorkload:
    """A workload that writes its outputs to ``self.out`` in this process."""

    out: Path

    def warm_up(self) -> None:
        self.run_pass()

    def digests(self) -> dict[str, str]:
        return _digests(self.out)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Figures(FileWorkload):
    """All ten bundled studies through ``jband-sim run --svg`` (``cli.main``)."""

    def __init__(self, seed: int, scratch: Path):
        import jband_sim.cli  # noqa: F401  (the entry point's import is set-up)
        self.order = workloads.figure_order(seed)
        self.out = scratch / "out"
        self.out.mkdir(parents=True)
        config_dir = scratch / "configs"
        config_dir.mkdir()
        self.configs = {}
        for name in self.order:
            path = config_dir / f"{name}.cfg"
            path.write_text(f"experiment = {name}\n", encoding="utf-8")
            self.configs[name] = str(path)

    def run_pass(self) -> list[dict]:
        cli = sys.modules["jband_sim.cli"]
        ops = []
        for name in self.order:
            argv = ["run", "--config", self.configs[name], "--out", str(self.out), "--svg"]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
                error = None if rc == 0 else f"exit code {rc}"
            except Exception as exc:  # a raising study is one failed operation
                error = f"{type(exc).__name__}: {exc}"
            ops.append({"op": name, "error": error})
        return ops


class WideWindow(FileWorkload):
    """Two long-row ``run_experiment_outputs`` calls; CSV output only."""

    def __init__(self, seed: int, scratch: Path):
        import jband_sim.experiments
        import jband_sim.output  # noqa: F401
        ex = jband_sim.experiments
        self.calls = [(c["stem"], ex.ExperimentSpec("custom", dict(c["params"]),
                                                    ex.SweepAxis(*c["sweep"])))
                      for c in workloads.wide_window_calls(seed)]
        self.out = scratch / "out"
        self.out.mkdir(parents=True)

    def run_pass(self) -> list[dict]:
        experiments = sys.modules["jband_sim.experiments"]
        output = sys.modules["jband_sim.output"]
        ops = []
        for stem, spec in self.calls:
            try:
                tables = experiments.run_experiment_outputs(spec)
            except Exception as exc:  # both tables of the call fail
                error = f"{type(exc).__name__}: {exc}"
                ops += [{"op": stem, "error": error}, {"op": stem + "_avg", "error": error}]
                continue
            for suffix in ("", "avg"):
                name = f"{stem}_{suffix}" if suffix else stem
                try:
                    output.write_csv(tables[suffix], self.out / f"{name}.csv")
                    error = None
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                ops.append({"op": name, "error": error})
        return ops


class CliEval:
    """Sequential cold ``python -m jband_sim.cli eval`` children, one at a time.

    With ``in_process`` (the traced run) the same round goes through
    ``cli.main`` in this process instead, so the tracer sees the layers.
    """

    def __init__(self, seed: int, scratch: Path, in_process: bool = False):
        import jband_sim.cli  # noqa: F401
        self.mix = workloads.cli_eval_mix(seed)
        self.in_process = in_process
        self.max_rss_kb = 0

    def _argv(self, measure, pairs):
        return [sys.executable, "-m", "jband_sim.cli", "eval", measure, *pairs]

    def warm_up(self) -> None:
        measure, pairs = self.mix[0]
        if self.in_process:
            self.run_pass()
        else:
            run_child(self._argv(measure, pairs))

    def run_pass(self) -> list[dict]:
        cli = sys.modules["jband_sim.cli"]
        ops = []
        for slot, (measure, pairs) in enumerate(self.mix):
            if self.in_process:
                buf = io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(buf), \
                            contextlib.redirect_stderr(io.StringIO()):
                        rc = cli.main(["eval", measure, *pairs])
                except Exception as exc:
                    rc, buf = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
                ops.append({"op": slot, "rc": rc, "out": buf.getvalue(),
                            "ms": (time.perf_counter() - t0) * 1e3})
            else:
                child = run_child(self._argv(measure, pairs))
                self.max_rss_kb = max(self.max_rss_kb, child["rss_kb"])
                ops.append({"op": slot, **child})
        for op in ops:
            op["error"] = None if op["rc"] == 0 else f"exit code {op['rc']}"
        return ops

    def digests(self) -> dict[str, str]:
        return {}

    def peak_rss_kb(self) -> int:
        return self.max_rss_kb


def make_workload(name: str, seed: int, scratch: Path, trace: bool):
    if name == "figures":
        return Figures(seed, scratch)
    if name == "wide_window":
        return WideWindow(seed, scratch)
    return CliEval(seed, scratch, in_process=trace)


def timed_passes(wl, seconds: float) -> list[dict]:
    """Whole passes until ``seconds`` have gone by (at least one)."""
    passes = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = wl.run_pass()
        elapsed = time.perf_counter() - t0
        passes.append({"s": elapsed, "ops": ops, "digests": wl.digests()})
        if time.perf_counter() - started >= seconds:
            return passes


def cli_probes(rounds: int = 10) -> dict[str, float]:
    """Cold-start parts of ``eval`` from separate interpreters.

    Each round runs the four commands back to back and takes their
    differences, so a slow spell of the machine affects both sides of a
    difference; the metrics are the medians over the rounds.
    """
    commands = {
        "python": [sys.executable, "-c", "pass"],
        "numpy": [sys.executable, "-c", "import numpy"],
        "jband_sim": [sys.executable, "-c", "import jband_sim"],
        "eval": [sys.executable, "-m", "jband_sim.cli", "eval", "entropy", "t=2", "N=100"],
    }
    parts = {"cli.python_ms": [], "cli.import_numpy_ms": [],
             "cli.import_jband_sim_ms": [], "cli.eval_rest_ms": []}
    for _ in range(rounds):
        ms = {key: run_child(argv)["ms"] for key, argv in commands.items()}
        parts["cli.python_ms"].append(ms["python"])
        parts["cli.import_numpy_ms"].append(ms["numpy"] - ms["python"])
        parts["cli.import_jband_sim_ms"].append(ms["jband_sim"] - ms["numpy"])
        parts["cli.eval_rest_ms"].append(ms["eval"] - ms["jband_sim"])
    return {key: statistics.median(values) for key, values in parts.items()}


def traced_run(wl, args) -> dict:
    """Untraced and traced passes in turn, then the cold-start probes.

    Alternating the two kinds of pass puts both in the same spells of the
    machine, so their difference is the tracing overhead.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced = [], []
    started = time.perf_counter()
    while not plain or time.perf_counter() - started < 0.8 * args.seconds:
        plain += timed_passes(wl, 0)
        tracer.pass_id = len(traced)
        tracer.install()
        try:
            traced += timed_passes(wl, 0)
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, list(range(len(traced))), workloads.FIGURE_STUDIES)
    overhead = (statistics.median(p["s"] for p in traced)
                - statistics.median(p["s"] for p in plain))
    metrics["trace.overhead_s"] = overhead
    metrics.update(cli_probes())

    trace_file = Path(args.trace_file)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "absent": tracer.absent, "overhead_s": overhead,
                   "untraced_pass_s": [p["s"] for p in plain],
                   "traced_pass_s": [p["s"] for p in traced],
                   "per_pass": tracer.per_pass(), "metrics": metrics,
                   **tracer.dump()}, fh)
    for name in tracer.absent:
        print(f"trace: layer function {name} is absent; its metrics read 0", file=sys.stderr)
    return {"passes": plain + traced, "layers": metrics, "absent": tracer.absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-file", default=str(ROOT / "bench-out" / "trace.json"))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = Path(args.scratch)
    wl = make_workload(args.workload, args.seed, scratch, bool(args.trace))
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = traced_run(wl, args)
    else:
        result = {"passes": timed_passes(wl, args.seconds)}
        result["peak_rss_kb"] = wl.peak_rss_kb()
    result["out"] = str(getattr(wl, "out", ""))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
