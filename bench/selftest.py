"""Self-test of the benchmark's checks (``python3 bench/run.py --self-test``).

It runs one pass of ``figures`` and ``wide_window``, then plants one fault
at a time in a copy of the outputs and requires the run's own evaluation to
count a failed operation:

* every CSV: one data cell and one sweep cell scaled by 1 + 1e-7;
* every SVG: its first polyline dropped;
* every ``cli_eval`` slot: the printed value scaled by 1 + 1e-7, and the
  second geometric-entropy slot moved by 5e-10 relative, which keeps it
  within its reference tolerance but breaks the M <-> N - M symmetry.

The pass digests are updated with each planted fault, so only the output
checks can catch it.  Exits 0 when every fault is caught.
"""
from __future__ import annotations

import copy
import hashlib
import re
import shutil
import sys

import checks
import workloads

SEED = 1


def scale_cell(data: bytes, column: int, factor: float = 1.0 + 1e-7) -> bytes:
    """Scale one cell of a CSV column: the middle row, or the largest cell
    when the middle one is near zero; written back with 12 digits."""
    lines = data.decode("utf-8").split("\n")
    cells = [line.split(",") for line in lines[1:-1]]
    values = [abs(float(row[column])) for row in cells]
    row = len(cells) // 2
    if values[row] < 1e-6:
        row = values.index(max(values))
    cells[row][column] = f"{float(cells[row][column]) * factor:.12g}"
    return "\n".join([lines[0]] + [",".join(c) for c in cells] + [""]).encode("utf-8")


def drop_polyline(data: bytes) -> bytes:
    return re.sub(rb"<polyline[^>]*/>\n?", b"", data, count=1)


def _with_file(result: dict, name: str, data: bytes) -> dict:
    fake = copy.deepcopy(result)
    digest = hashlib.sha256(data).hexdigest()
    for pass_ in fake["passes"]:
        pass_["digests"][name] = digest
    return fake


def file_faults(workload, launch, read_outputs, evaluate_files, program) -> list[str]:
    _, result = launch(workload, SEED, 0, 0, "selftest")
    try:
        files = read_outputs(result)
    finally:
        shutil.rmtree(result["scratch"], ignore_errors=True)
    failed, _, notes = evaluate_files(workload, result, files, SEED, program)
    if failed:
        return [f"{workload}: unmodified outputs fail: {notes[:3]}"]
    misses = []
    planted = 0
    for name, data in files.items():
        if name.endswith(".csv"):
            faults = [("data cell", scale_cell(data, -1)), ("sweep cell", scale_cell(data, 0))]
        else:
            faults = [("polyline", drop_polyline(data))]
        for what, bad in faults:
            planted += 1
            failed, wrong, _ = evaluate_files(workload, _with_file(result, name, bad),
                                              {**files, name: bad}, SEED, program)
            if not (failed and wrong):
                misses.append(f"{workload}: {what} fault in {name} not caught")
    print(f"{workload}: {planted - len(misses)} of {planted} planted faults caught")
    return misses


def eval_faults(evaluate_evals) -> list[str]:
    mix = workloads.cli_eval_mix(SEED)
    refs = [checks.eval_reference(m, p)[0] for m, p in mix]
    good = {"passes": [{"ops": [{"op": k, "error": None, "out": f"{v:.12g}\n", "ms": 1.0}
                                for k, v in enumerate(refs)]}]}
    failed, _, notes = evaluate_evals(good, SEED)
    if failed:
        return [f"cli_eval: reference outputs fail: {notes[:3]}"]
    misses = []
    symmetric = [k for k, (m, _) in enumerate(mix) if m == "geometric_entropy"][1]
    faults = [(k, 1.0 + 1e-7) for k, v in enumerate(refs) if abs(v) > 1e-2]
    faults.append((symmetric, 1.0 + 5e-10))
    for slot, factor in faults:
        bad = copy.deepcopy(good)
        bad["passes"][0]["ops"][slot]["out"] = f"{refs[slot] * factor:.12g}\n"
        failed, wrong, _ = evaluate_evals(bad, SEED)
        if not (failed == 1 and wrong == 1):
            misses.append(f"cli_eval: slot {slot} ({mix[slot][0]}) scaled by {factor} not caught")
    print(f"cli_eval: {len(faults) - len(misses)} of {len(faults)} planted faults caught")
    return misses


def main(launch, read_outputs, evaluate_files, evaluate_evals, load_program) -> int:
    program = load_program()
    misses = []
    for workload in ("figures", "wide_window"):
        misses += file_faults(workload, launch, read_outputs, evaluate_files, program)
    misses += eval_faults(evaluate_evals)
    for miss in misses:
        print(f"MISSED: {miss}", file=sys.stderr)
    print("self-test " + ("failed" if misses else "passed"))
    return 1 if misses else 0
