"""Inputs of the three benchmark workloads, made from the seed alone.

Both the runner (``run.py``, which checks outputs) and the worker (which
runs the program) import this module, so it imports nothing from the
program under test.
"""
from __future__ import annotations

import random

WORKLOADS = ("figures", "wide_window", "cli_eval")

#: The ten bundled studies, in the program's listing order.
FIGURE_STUDIES = ("fig1a", "fig1b", "fig1c", "fig1d", "fig2a",
                  "fig2b", "fig2c", "fig3", "fig4", "fig5")


def figure_order(seed: int) -> list[str]:
    """The order in which every pass runs the studies.

    The studies themselves are fixed; the seed only permutes them.
    """
    order = list(FIGURE_STUDIES)
    random.Random(seed).shuffle(order)
    return order


def wide_window_calls(seed: int) -> list[dict]:
    """The two long-row library calls of one ``wide_window`` pass.

    Sizes and grids are fixed, so every seed does the same Bessel work
    (rows up to n_max = 1000 and x = 900); the seed draws the nonzero
    couplings a and b, which scale the probabilities but not the work.
    """
    rng = random.Random(seed)

    def coupling(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    return [
        {"stem": "wide_t",
         "params": {"N": 2000, "c": 60.0, "a": coupling(0.05, 0.6), "b": coupling(0.05, 0.3)},
         "sweep": ("t", 0.0, 15.0, 0.075)},
        {"stem": "wide_c",
         "params": {"N": 1000, "t": 10.0, "a": coupling(0.05, 0.6), "b": coupling(0.05, 0.3)},
         "sweep": ("c", 1.0, 90.0, 0.47)},
    ]


def wide_window_tables(seed: int) -> list[tuple[str, dict, str]]:
    """One entry per written table: (file stem, call, '' or 'avg')."""
    out = []
    for call in wide_window_calls(seed):
        out.append((call["stem"], call, ""))
        out.append((call["stem"] + "_avg", call, "avg"))
    return out


def _num(value: float) -> str:
    return repr(float(value))


def cli_eval_mix(seed: int) -> list[tuple[str, tuple[str, ...]]]:
    """One round of ``eval`` invocations: (measure, key=value arguments).

    Chain lengths and Bessel orders are fixed per slot, so the Bessel work of
    a round is the same for every seed; times, rates, couplings and the
    multipartite sizes come from the seed.  Every N, n and M is an integer
    and every value lies inside the documented domain.  The two
    ``geometric_entropy`` slots are an (N, M), (N, N - M) pair.
    """
    rng = random.Random(seed)

    def u(lo, hi, digits=4):
        return round(rng.uniform(lo, hi), digits)

    def model(N, t):
        return (f"t={_num(t)}", f"N={N}", f"c={_num(u(5.0, 40.0))}",
                f"a={_num(u(0.0, 0.5))}", f"b={_num(u(0.0, 0.5))}")

    def survival(N):
        # The front (|n| ~ c t) stays well inside the window, where the
        # in-window probability has the closed form exp(-a^2 - b^2 t).
        c = u(5.0, 30.0)
        t = u(0.2, 0.6 * (N / 2 - 40) / c)
        return (f"t={_num(t)}", f"N={N}", f"c={_num(c)}",
                f"a={_num(u(0.0, 0.5))}", f"b={_num(u(0.0, 0.5))}")

    def chi3():
        delta_e = u(1.0, 4.0)
        return (f"N={rng.randint(4, 400)}", f"mu={_num(u(0.5, 2.0))}",
                f"gamma={_num(u(0.1, 1.0))}", f"delta_e={_num(delta_e)}",
                f"omega={_num(round(delta_e / 3.0 * rng.uniform(0.8, 1.2), 4))}")

    gN = rng.randint(2, 400)
    gM = rng.randint(1, gN - 1)
    return [
        ("entropy", model(100, u(0.1, 5.0))),
        ("entropy", model(300, u(0.1, 5.0))),
        ("survival", survival(200)),
        ("survival", survival(300)),
        ("ipr", model(50, u(0.1, 3.0))),
        ("ipr", model(300, u(0.1, 5.0))),
        ("bessel", ("n=-7", f"x={_num(u(0.0, 50.0))}")),
        ("bessel", ("n=500", f"x={_num(u(460.0, 500.0))}")),
        ("spano", (f"c={_num(u(5.0, 40.0))}", f"b={_num(u(0.1, 1.0))}",
                   f"t_k={_num(u(0.5, 3.0))}")),
        ("spano", (f"c={_num(u(5.0, 40.0))}", f"b={_num(u(0.1, 1.0))}",
                   f"t_k={_num(u(0.5, 3.0))}", "N=300")),
        ("chi3", chi3()),
        ("chi3", chi3()),
        ("geometric_entropy", (f"N={gN}", f"M={gM}")),
        ("geometric_entropy", (f"N={gN}", f"M={gN - gM}")),
        ("zeta1", (f"N={rng.randint(4, 400)}",)),
        ("zeta1", (f"N={rng.randint(4, 400)}",)),
    ]
