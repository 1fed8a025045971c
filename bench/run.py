#!/usr/bin/env python3
"""jband-sim benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload figures --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --self-test        # the checks catch planted faults
    python3 bench/run.py --write-digests    # remake bench/reference_digests.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The workload itself runs in a separate worker process
(``worker.py``); this process only starts it, times its set-up and checks
its outputs, so the reference libraries loaded here (scipy, mpmath) count
toward neither set-up time nor peak memory.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / "bench-out"
DIGESTS = BENCH / "reference_digests.json"

import workloads  # noqa: E402  (the benchmark's own module, next to this file)

#: Set-up is timed this many extra times per run, half before and half after
#: the measured run (which is timed too), so the median spans the whole run.
SETUP_PROBES = 4
#: Seconds a worker may take beyond its measuring time before it is killed.
WORKER_GRACE = 100


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def launch(workload: str, seed: int, seconds: float, trace: int, tag: str,
           setup_only: bool = False) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time (spawn to READY) and its result."""
    scratch = SCRATCH / "tmp" / f"{workload}-{os.getpid()}-{tag}"
    shutil.rmtree(scratch, ignore_errors=True)
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--scratch", str(scratch),
            "--trace-file", str(SCRATCH / f"trace-{workload}-seed{seed}.json")]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(seconds + WORKER_GRACE, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if ready.strip() != "READY" or rc != 0:
        raise BenchError(f"worker for {workload} failed (exit code {rc}) before "
                         f"{'set-up ended' if ready.strip() != 'READY' else 'it reported'}")
    if setup_only:
        shutil.rmtree(scratch, ignore_errors=True)
        return setup_s, None
    result = json.loads(rest.strip().splitlines()[-1])
    result["scratch"] = str(scratch)
    return setup_s, result


def read_outputs(result: dict) -> dict[str, bytes]:
    out = Path(result["out"])
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def load_program():
    """The program's own functions, for the property checks that call it."""
    sys.path.insert(0, str(ROOT / "src"))
    import jband_sim
    return jband_sim


# ---------------------------------------------------------------- evaluation

def file_problems(workload: str, files: dict[str, bytes], seed: int,
                  program) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Per operation: its output files and the problems found in them."""
    import checks

    if workload == "figures":
        op_files = {name: checks.study_files(name) for name in workloads.FIGURE_STUDIES}
        problems = {name: checks.check_study(name, files) for name in op_files}
        samples = checks.figure_samples(seed)
    else:
        op_files, problems = {}, {}
        for stem, call, suffix in workloads.wide_window_tables(seed):
            op_files[stem] = [f"{stem}.csv"]
            problems[stem] = checks.check_wide_table(stem, call, suffix, files.get(f"{stem}.csv"))
            if suffix and not problems[stem]:
                problems[stem] += checks.check_average_relation(
                    files[f"{call['stem']}.csv"], files[f"{stem}.csv"], call["params"]["N"])
        samples = checks.wide_window_samples(seed)
    for op, problem in checks.check_program_properties(program, samples):
        for name in (op, f"{op}_avg"):
            if name in problems:
                problems[name].append(problem)
    return op_files, problems


def evaluate_files(workload: str, result: dict, files: dict[str, bytes], seed: int,
                   program) -> tuple[int, int, list[str]]:
    """(failed, failed on a wrong output, notes) over every pass of the run.

    An operation fails when it raised, when its files differ from those of
    the other passes, or when the checks find a problem in them.
    """
    op_files, problems = file_problems(workload, files, seed, program)
    final = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    failed = wrong = 0
    notes = [p for ps in problems.values() for p in ps]
    for k, pass_ in enumerate(result["passes"]):
        for op in pass_["ops"]:
            if op["error"]:
                failed += 1
                notes.append(f"pass {k + 1} {op['op']}: {op['error']}")
                continue
            changed = [f for f in op_files[op["op"]] if pass_["digests"].get(f) != final.get(f)]
            if changed:
                notes.append(f"pass {k + 1} {op['op']}: {', '.join(changed)} differ "
                             "from the checked copy")
            if changed or problems[op["op"]]:
                failed += 1
                wrong += 1
    return failed, wrong, notes


def evaluate_evals(result: dict, seed: int) -> tuple[int, int, list[str]]:
    """(failed, failed on a wrong output, notes) over every ``eval`` invocation."""
    import checks

    mix = workloads.cli_eval_mix(seed)
    refs = [checks.eval_reference(measure, pairs) for measure, pairs in mix]
    pair = [k for k, (measure, _) in enumerate(mix) if measure == "geometric_entropy"]
    failed = wrong = 0
    notes = []
    for k, pass_ in enumerate(result["passes"]):
        printed = {}
        for op in pass_["ops"]:
            slot = op["op"]
            label = f"round {k + 1} eval {mix[slot][0]} {' '.join(mix[slot][1])}"
            if op["error"]:
                failed += 1
                notes.append(f"{label}: {op['error']}: {op['out'].strip()[-200:]}")
                continue
            problems = checks.check_eval_output(op["out"], refs[slot])
            if not problems:
                printed[slot] = float(op["out"])
                # Property: geometric entropy is symmetric under M <-> N - M.
                if slot == pair[1] and pair[0] in printed and not checks.close(
                        printed[pair[0]], printed[slot], 1e-11, 0.0):
                    problems = [f"not symmetric: {printed[pair[0]]!r} vs {printed[slot]!r}"]
            if problems:
                failed += 1
                wrong += 1
                notes += [f"{label}: {p}" for p in problems]
    return failed, wrong, notes


def compare_reference_digests(files: dict[str, bytes]) -> str:
    """Information only: how many outputs match the recorded reference digests."""
    try:
        reference = json.loads(DIGESTS.read_text(encoding="utf-8"))["files"]
    except (OSError, ValueError, KeyError):
        return "reference digests: none recorded"
    same = [n for n, d in reference.items()
            if n in files and hashlib.sha256(files[n]).hexdigest() == d]
    differ = sorted(set(reference) - set(same))
    text = f"reference digests: {len(same)} of {len(reference)} outputs match"
    return text + (f"; differing: {', '.join(differ)}" if differ else "")


def machine_info() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


# ---------------------------------------------------------------- commands

def run(args, spec: dict) -> dict:
    def probe(k):
        return launch(args.workload, args.seed, args.seconds, 0, f"probe{k}", setup_only=True)[0]

    probes = 0 if args.trace else SETUP_PROBES
    setup = [probe(k) for k in range(probes // 2)]
    setup_s, result = launch(args.workload, args.seed, args.seconds, args.trace, "run")
    setup.append(setup_s)
    setup += [probe(k) for k in range(probes // 2, probes)]
    try:
        if args.workload == "cli_eval":
            failed, wrong, notes = evaluate_evals(result, args.seed)
        else:
            files = read_outputs(result)
            failed, wrong, notes = evaluate_files(args.workload, result, files, args.seed,
                                                  load_program())
            if args.workload == "figures":
                print(compare_reference_digests(files), file=sys.stderr)
    finally:
        shutil.rmtree(result["scratch"], ignore_errors=True)

    passes = result["passes"]
    attempted = sum(len(p["ops"]) for p in passes)
    if args.trace:
        measured = result["layers"]
        wanted = spec["per_layer"]
    else:
        pass_s = statistics.median(p["s"] for p in passes)
        if args.workload == "cli_eval":
            eval_ms = statistics.median(op["ms"] for p in passes for op in p["ops"])
        else:
            eval_ms = statistics.median(p["s"] * 1e3 / len(p["ops"]) for p in passes)
        measured = {"setup_s": statistics.median(setup), "pass_s": pass_s,
                    "eval_ms": eval_ms, "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"no measurement for {', '.join(missing)}")
    for note in notes[:20]:
        print(f"check: {note}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(), "setup_s": setup,
              "pass_s": [p["s"] for p in passes], "notes": notes[:100],
              "absent": result.get("absent", [])}
    SCRATCH.mkdir(exist_ok=True)
    (SCRATCH / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def write_digests() -> None:
    _, result = launch("figures", 1, 0, 0, "digests")
    try:
        files = read_outputs(result)
        failed, _, notes = evaluate_files("figures", result, files, 1, load_program())
    finally:
        shutil.rmtree(result["scratch"], ignore_errors=True)
    if failed:
        raise BenchError("outputs fail their checks; digests not written: " + "; ".join(notes[:5]))
    digests = {n: hashlib.sha256(d).hexdigest() for n, d in files.items()}
    DIGESTS.write_text(json.dumps({
        "about": "SHA-256 of the 34 files of the ten bundled studies (jband-sim run --svg); "
                 "remake with: python3 bench/run.py --write-digests",
        "machine": machine_info(), "files": digests}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jband_sim" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'jband_sim'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            import selftest
            return selftest.main(launch, read_outputs, evaluate_files, evaluate_evals,
                                 load_program)
        if args.write_digests:
            write_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        print(json.dumps(run(args, spec)))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in SCRATCH.glob(f"tmp/*-{os.getpid()}-*"):
            shutil.rmtree(leftover, ignore_errors=True)
        with contextlib.suppress(OSError):
            (SCRATCH / "tmp").rmdir()


if __name__ == "__main__":
    sys.exit(main())
