"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""
import functools
import math
import random
import time

import numpy as np
import pytest

from jband_sim import cli
from jband_sim.core import AggregateDensityMatrix, ModelParams
from jband_sim.experiments import EXPERIMENTS, ExperimentSpec, run_experiment, run_experiment_outputs
from jband_sim.measures import average_concurrence, coherence_size, entropy_report, spano_coherence_size
from jband_sim.multipartite import (
    SymmetricState,
    TwoBranchHamiltonian,
    geometric_entropy,
    two_exciton_diagonalize,
    zeta_ratios,
)
from jband_sim.output import render_csv, write_study
from jband_sim.propagator import occupation_profile, window_survival
from jband_sim.specfun import bessel_j, bessel_j_row

from oracles import bessel_mp

PLATEAU = 2.0 - math.log(2.0)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")
        return wrapper
    return decorate


def entropy_total(t, a, b, c, N):
    p = ModelParams(a=a, b=b, c=c, t_k=1.0, N=N)
    return entropy_report(occupation_profile(t, p)).total


@criterion("01 bessel accuracy and closure")
def test_bessel_accuracy_against_oracle():
    started = time.perf_counter()
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(500):
        n = rng.randint(-500, 500)
        x = rng.uniform(0.0, 500.0)
        worst = max(worst, abs(bessel_j(n, x) - bessel_mp(n, x)))
    assert worst <= 1e-10
    for x in (0.5, 37.2, 333.0):
        row = bessel_j_row(math.ceil(x) + 40, x)
        total = row[0] ** 2 + 2.0 * float(np.sum(row[1:] ** 2))
        assert abs(total - 1.0) <= 1e-8
    assert time.perf_counter() - started < 5.0


@criterion("02 probability conservation and window exit")
def test_window_survival_dynamics():
    p = ModelParams(a=0.0, b=0.0, c=30.0, t_k=1.0, N=200)
    for t in np.arange(0.0, 1.5001, 0.05):
        assert abs(window_survival(float(t), p) - 1.0) <= 1e-6
    # wavefront reaches |n| = 100 near t = 100/30
    late = [window_survival(float(t), p) for t in np.arange(3.4, 10.001, 0.2)]
    assert all(x > y for x, y in zip(late, late[1:]))


@criterion("03 entropy rise, single peak, fall, N-ordering")
def test_entropy_shape_over_time():
    ts = [0.05 * i for i in range(201)]
    series = [entropy_total(t, 0.0, 0.0, 30.0, 50) for t in ts]
    assert series[0] == 0.0
    peak = int(np.argmax(series))
    assert 0 < peak < len(series) - 1
    assert all(x < y for x, y in zip(series[: peak + 1], series[1: peak + 1]))
    # strictly falling well past the peak (through t = 5), never re-attaining it
    tail = series[peak: ts.index(5.0) + 1]
    assert all(x > y for x, y in zip(tail, tail[1:]))
    assert all(v < series[peak] for i, v in enumerate(series) if i != peak)
    assert series[-1] < 0.2 * series[peak]
    at_t6 = [entropy_total(6.0, 0.0, 0.0, 30.0, N) for N in (200, 100, 50)]
    assert at_t6[0] > at_t6[1] > at_t6[2]


@criterion("04 entropy saturates beyond critical chain length")
def test_entropy_saturation_in_n():
    s150 = entropy_total(2.0, 0.0, 0.0, 30.0, 150)
    s300 = entropy_total(2.0, 0.0, 0.0, 30.0, 300)
    assert abs(s150 - s300) / s300 < 1e-3


@criterion("05 entropy decreases with either coupling")
def test_entropy_monotone_in_couplings():
    along_a = [entropy_total(6.0, a, 0.0, 10.0, 150) for a in (0.0, 0.3, 0.7, 1.5)]
    assert all(x > y for x, y in zip(along_a, along_a[1:]))
    along_b = [entropy_total(6.0, 0.0, b, 20.0, 100) for b in (0.0, 0.5, 1.0)]
    assert all(x > y for x, y in zip(along_b, along_b[1:]))


@criterion("06 concurrence and coherence-size limits")
def test_concurrence_and_coherence_endpoints():
    for N in range(2, 513):
        assert average_concurrence(1.0, N).avg_concurrence == 0.0
        assert average_concurrence(float(N), N).avg_concurrence == 2.0 / N
    for N in (2, 3, 16, 101):
        diag = AggregateDensityMatrix(entries=np.eye(N) / N)
        assert coherence_size(diag) == pytest.approx(1.0, rel=1e-12)
        uniform = AggregateDensityMatrix(entries=np.full((N, N), 1.0 / N))
        assert coherence_size(uniform) == pytest.approx(float(N), rel=1e-12)


@criterion("07 empirical coherence size value and monotonicity")
def test_spano_relation():
    p = ModelParams(a=0.0, b=0.5, c=15.0, t_k=2.0, N=500)
    assert spano_coherence_size(p) == pytest.approx(16.552, abs=1e-3)
    big = 10**9
    grid_b = np.linspace(0.1, 2.0, 10)
    grid_tk = np.linspace(0.5, 5.0, 10)
    for tk in grid_tk:
        along_b = [spano_coherence_size(ModelParams(0.0, float(b), 15.0, float(tk), big))
                   for b in grid_b]
        assert all(x > y for x, y in zip(along_b, along_b[1:]))
    for b in grid_b:
        along_tk = [spano_coherence_size(ModelParams(0.0, float(b), 15.0, float(tk), big))
                    for tk in grid_tk]
        assert all(x > y for x, y in zip(along_tk, along_tk[1:]))


@criterion("08 geometric measure symmetry, argmax, endpoints, huge N")
def test_geometric_measure_suite():
    for N in range(1, 65):
        for M in range(N + 1):
            assert geometric_entropy(SymmetricState(N, M)) == \
                geometric_entropy(SymmetricState(N, N - M))
    for N in range(2, 65, 2):
        half = geometric_entropy(SymmetricState(N, N // 2))
        assert all(half > geometric_entropy(SymmetricState(N, M))
                   for M in range(N + 1) if M != N // 2)
    assert geometric_entropy(SymmetricState(2, 1)) == pytest.approx(math.log(2), abs=1e-12)
    huge = geometric_entropy(SymmetricState(10**6, 5 * 10**5))
    assert math.isfinite(huge) and huge > 0.0


@criterion("09 exciton entropy ratios")
def test_zeta_ratio_values_and_decay():
    z1, z2 = zeta_ratios(10)
    assert z1 == pytest.approx(0.6764, abs=5e-4)
    assert z2 == pytest.approx(0.8540, abs=5e-4)
    previous = None
    for N in range(4, 401, 2):
        z1, z2 = zeta_ratios(N)
        assert z2 > z1
        if previous is not None:
            assert z1 < previous[0] and z2 < previous[1]
        previous = (z1, z2)


@criterion("10 reduced susceptibility plateau")
def test_chi3_plateau():
    values = {N: geometric_entropy(SymmetricState(N, 1)) * geometric_entropy(SymmetricState(N, 2))
              for N in range(4, 401, 2)}
    ordered = [values[N] for N in sorted(values)]
    assert all(x < y for x, y in zip(ordered, ordered[1:]))
    for N, v in values.items():
        if N >= 200:
            assert abs(v - PLATEAU) / PLATEAU <= 0.02
    table = run_experiment(ExperimentSpec("fig5"))
    reduced = [row[1] for row in table.rows if row[0] >= 200]
    assert all(abs(v - PLATEAU) / PLATEAU <= 0.02 for v in reduced)


@criterion("11 two-branch diagonalization against brute force")
def test_two_exciton_diagonalization():
    rng = np.random.default_rng(20240817)
    samples = rng.normal(0.0, 10.0, size=(10_000, 3))
    matrices = np.empty((10_000, 2, 2))
    matrices[:, 0, 0] = samples[:, 0]
    matrices[:, 1, 1] = samples[:, 1]
    matrices[:, 0, 1] = matrices[:, 1, 0] = samples[:, 2]
    reference = np.linalg.eigvalsh(matrices)
    for (e1, e2, tc), (lo, hi) in zip(samples, reference):
        e_a, e_b, beta = two_exciton_diagonalize(TwoBranchHamiltonian(e1, e2, tc))
        scale = max(abs(lo), abs(hi))
        assert abs(e_a - lo) <= 1e-12 * scale
        assert abs(e_b - hi) <= 1e-12 * scale
        c, s = math.cos(beta), math.sin(beta)
        residual = (e2 - e1) * c * s + tc * (c * c - s * s)
        assert abs(residual) <= 1e-12 * scale
    assert two_exciton_diagonalize(TwoBranchHamiltonian(1.25, 1.25, -3.0))[2] == math.pi / 4


@criterion("12 deterministic figure outputs within the time budget")
def test_cli_determinism_and_runtime(tmp_path):
    started = time.perf_counter()
    for name in EXPERIMENTS:
        if name == "custom":
            continue
        list(write_study(run_experiment_outputs(ExperimentSpec(name)), tmp_path / f"{name}.csv", False))
    elapsed = time.perf_counter() - started
    cfg = tmp_path / "fig1a.cfg"
    cfg.write_text("experiment = fig1a\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
    first = (tmp_path / "r1" / "fig1a.csv").read_bytes()
    second = (tmp_path / "r2" / "fig1a.csv").read_bytes()
    assert first == second
    assert first == render_csv(run_experiment(ExperimentSpec("fig1a"))).encode()
    assert elapsed < 30.0
