"""Independent checks of the benchmark's outputs.

Nothing here calls the code paths it checks.  Bessel values come from
``scipy.special.jv``, log-binomials from ``mpmath``, and the binary entropy,
the site window, the concurrence and the susceptibility are written out
again from the formulas in the README.  Each check returns a list of
problems; an empty list means the output is right.

The study definitions below restate the README's table of bundled studies,
so a change to a study's parameters, columns or grid shows as a problem.
"""
from __future__ import annotations

import functools
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.special import jv

import workloads

mpmath.mp.dps = 30

# Entropies: the kernel is accurate to ~1e-14 and the CSV keeps 12 digits,
# so 1e-9 relative is loose for a right value and tight for a 1e-7 error.
RTOL = 1e-9
ATOL = 1e-12
# CSV round-off: 12 significant digits leave up to 5e-12 relative on each
# side of a relation between two printed cells.
ROUND_RTOL = 1.1e-11


# ---------------------------------------------------------------- formulas

def binary_entropy(p):
    """-p ln p - (1 - p) ln(1 - p), elementwise, 0 at p = 0 and p = 1."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    q = p[inner]
    out[inner] = -q * np.log(q) - (1.0 - q) * np.log1p(-q)
    return out


def window_orders(N: int) -> np.ndarray:
    """|n| for the N sites of the centred window containing site 0."""
    return np.abs(np.arange(-(N // 2), N - N // 2))


def site_probabilities(N: int, c: float, t: float, a: float, b: float) -> np.ndarray:
    """P_n(t) = exp(-a^2) J_n(c t)^2 exp(-b^2 t) over the window."""
    n = window_orders(N)
    j = jv(n, c * t)
    return math.exp(-a * a) * j * j * math.exp(-b * b * t)


def entropy_total(N, c, t, a, b) -> float:
    return float(np.sum(binary_entropy(site_probabilities(N, c, t, a, b))))


@functools.lru_cache(maxsize=64)
def _bessel_table(xs: tuple[float, ...], max_order: int) -> np.ndarray:
    """J_n(x) for n = 0..max_order (rows) and each x (columns); scipy.special.jv
    is slow at large x, and the self-test asks for the same tables many times."""
    table = jv(np.arange(max_order + 1)[:, None], np.array(xs)[None, :])
    table.setflags(write=False)
    return table


def entropy_totals(points: list[dict]) -> np.ndarray:
    """entropy_total of many points, sharing one Bessel table between them."""
    xs = sorted({p["c"] * p["t"] for p in points})
    table = _bessel_table(tuple(xs), max(int(p["N"]) // 2 for p in points))
    column = {x: k for k, x in enumerate(xs)}
    out = np.zeros(len(points))
    by_size: dict[int, list[int]] = {}
    for k, p in enumerate(points):
        by_size.setdefault(int(p["N"]), []).append(k)
    for N, ks in by_size.items():
        c, t, a, b = (np.array([points[k][key] for k in ks], dtype=float) for key in "ctab")
        j = table[window_orders(N)][:, [column[points[k]["c"] * points[k]["t"]] for k in ks]]
        prob = np.exp(-a * a) * (j * j) * np.exp(-b * b * t)
        out[ks] = binary_entropy(prob).sum(axis=0)
    return out


def ipr_value(N, c, t, a, b) -> float:
    u = site_probabilities(N, c, t, a, b)
    w = u / u.sum()
    return float(1.0 / np.sum(w * w))


def log_overlap_sq(N: int, M: int):
    """ln[C(N, M) (M/N)^M ((N-M)/N)^(N-M)] in 30-digit arithmetic."""
    N, M = mpmath.mpf(N), mpmath.mpf(M)
    value = mpmath.log(mpmath.binomial(N, M))
    if M > 0:
        value += M * mpmath.log(M / N)
    if N - M > 0:
        value += (N - M) * mpmath.log((N - M) / N)
    return value


def geometric_entropy(N: int, M: int) -> float:
    return float(-log_overlap_sq(N, M))


def zeta1(N: int) -> float:
    return float(-log_overlap_sq(N, 1) / -log_overlap_sq(N, N // 2))


def chi3_reduced(N: int) -> float:
    return float(log_overlap_sq(N, 1) * log_overlap_sq(N, 2))


def chi3(N, mu, gamma, delta_e, omega) -> float:
    return float(N * mpmath.mpf(mu) ** 2 * log_overlap_sq(N, 1) * log_overlap_sq(N, 2)
                 / (2 * mpmath.mpf(gamma) * abs(mpmath.mpf(omega) ** 2 - mpmath.mpf(delta_e) ** 2)))


def spano(c, b, t_k, N) -> float:
    return min(2.16 * (c * c / (b * b * t_k)) ** (1.0 / 3.0), float(N))


def concurrence(N: int, c: float, b: float, t_k: float) -> float:
    zeta = max(1.0, spano(c, b, t_k, N))
    return 2.0 * (zeta - 1.0) / (N * (N - 1.0))


def close(got: float, want: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def front_inside(n_max: int, x: float) -> bool:
    """True when J_n(x) is below ~1e-8 for every n > n_max (Airy tail)."""
    return n_max >= x + 6.0 * x ** (1.0 / 3.0) + 10.0


# ---------------------------------------------------------------- studies

def axis(start, stop, step) -> list[float]:
    count = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(count)]


T_AXIS = ("t", axis(0.0, 10.0, 0.05))
N_AXIS = ("N", axis(10, 300, 10))


@dataclass(frozen=True)
class Entropy:
    """Entropy study: one column per curve, a total file and an '_avg' file."""

    sweep: tuple[str, list[float]]
    fixed: dict
    curves: list[tuple[str, dict]]
    extended: bool = False

    def points(self):
        """(row, column, parameters) of every entropy cell."""
        var, grid = self.sweep
        for i, x in enumerate(grid):
            for j, (_, curve) in enumerate(self.curves):
                p = {"a": 0.0, "b": 0.0, **self.fixed, **curve, var: x}
                p["N"] = int(round(p["N"]))
                yield i, j, p


@dataclass(frozen=True)
class Table:
    """Single-file study whose columns come from a closed form of N."""

    sweep: tuple[str, list[float]]
    columns: tuple[str, ...]
    values: object  # N -> the row's expected values


STUDIES = {
    "fig1a": Entropy(T_AXIS, {"c": 30.0},
                     [("N200", {"N": 200}), ("N100", {"N": 100}), ("N50", {"N": 50})]),
    "fig1b": Entropy(N_AXIS, {"c": 30.0},
                     [("t2", {"t": 2.0}), ("t5", {"t": 5.0}), ("t9", {"t": 9.0})]),
    "fig1c": Entropy(N_AXIS, {"t": 2.0},
                     [("c10", {"c": 10.0}), ("c20", {"c": 20.0}), ("c40", {"c": 40.0})]),
    "fig1d": Entropy(N_AXIS, {"c": 30.0, "t": 6.0},
                     [("b0", {"b": 0.0}), ("b0.3", {"b": 0.3}), ("b0.5", {"b": 0.5})],
                     extended=True),
    "fig2a": Entropy(T_AXIS, {"c": 10.0, "N": 150},
                     [("a0", {"a": 0.0}), ("a0.3", {"a": 0.3}),
                      ("a0.7", {"a": 0.7}), ("a1.5", {"a": 1.5})]),
    "fig2b": Entropy(T_AXIS, {"c": 20.0, "N": 100},
                     [("b0", {"b": 0.0}), ("b0.5", {"b": 0.5}), ("b1", {"b": 1.0})]),
    "fig2c": Entropy(T_AXIS, {"a": 0.5, "b": 0.3, "N": 200},
                     [("c40", {"c": 40.0}), ("c20", {"c": 20.0}), ("c5", {"c": 5.0})]),
    "fig3": Table(("N", axis(10, 200, 5)),
                  ("C_c15_b0.5", "C_c15_b0.1", "C_c5_b0.5", "C_c5_b0.1"),
                  lambda N: [concurrence(N, c, b, 2.0)
                             for c, b in ((15, 0.5), (15, 0.1), (5, 0.5), (5, 0.1))]),
    "fig4": Table(("N", axis(4, 400, 4)), ("zeta1", "zeta2"),
                  lambda N: [zeta1(N), float(log_overlap_sq(N, 2) / log_overlap_sq(N, N // 2))]),
    "fig5": Table(("N", axis(4, 400, 4)), ("chi3_reduced", "chi3_over_N"),
                  lambda N: [chi3_reduced(N), chi3(N, 1.0, 0.5, 3.0, 1.0) / N]),
}


def study_files(name: str) -> list[str]:
    """The CSV and SVG files one study writes."""
    stems = [name, f"{name}_avg"] if isinstance(STUDIES[name], Entropy) else [name]
    return [f"{s}.{ext}" for s in stems for ext in ("csv", "svg")]


# ---------------------------------------------------------------- parsing

def parse_csv(data: bytes) -> tuple[list[str], list[list[float]]]:
    """Header and numeric rows; raises ValueError on any format breach."""
    text = data.decode("utf-8")
    if "\r" in text or not text.endswith("\n"):
        raise ValueError("CSV must use LF line endings and end with a newline")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    rows = []
    for k, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {k}: {len(cells)} cells, header has {len(header)}")
        rows.append([float(v) for v in cells])
    return header, rows


def check_grid(rows, grid) -> list[str]:
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, expected {len(grid)}"]
    return [f"row {i + 1}: sweep value {r[0]!r}, expected {x!r}"
            for i, (r, x) in enumerate(zip(rows, grid)) if not close(r[0], x, 1e-12, 1e-12)][:3]


def check_svg(data: bytes, header: list[str], rows: list[list[float]]) -> list[str]:
    """Chart of a table: one polyline per curve, one point per row, in the viewBox,
    every point an affine image of its data (one map shared by all curves)."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    if root.tag != f"{ns}svg":
        return [f"root element is {root.tag}"]
    try:
        x0, y0, w, h = (float(v) for v in root.get("viewBox", "").split())
    except ValueError:
        return ["SVG has no usable viewBox"]
    series = []
    for poly in root.iter(f"{ns}polyline"):
        try:
            series.append([tuple(float(v) for v in pair.split(","))
                           for pair in poly.get("points", "").split()])
        except ValueError:
            return ["polyline with unreadable points"]
    curves = len(header) - 1
    if len(series) != curves:
        return [f"{len(series)} polylines for {curves} curves"]
    problems = []
    for k, pts in enumerate(series):
        if len(pts) != len(rows):
            problems.append(f"polyline {k + 1}: {len(pts)} points for {len(rows)} rows")
        elif any(not (x0 <= px <= x0 + w and y0 <= py <= y0 + h) for px, py in pts):
            problems.append(f"polyline {k + 1}: a point lies outside the viewBox")
    if problems:
        return problems

    pixels_x = [[p[0] for p in pts] for pts in series]
    pixels_y = [[p[1] for p in pts] for pts in series]
    problems += _check_affine([[r[0] for r in rows]] * curves, pixels_x, "x")
    problems += _check_affine([[r[k + 1] for r in rows] for k in range(curves)], pixels_y, "y")
    labels = {el.text for el in root.iter(f"{ns}text")}
    problems += [f"legend lacks '{name}'" for name in header[1:] if name not in labels]
    return problems


def _check_affine(values, pixels, what) -> list[str]:
    # Pixels are printed with two decimals; 0.02 px allows for that and
    # for the error of the map fitted through the rounded extremes.
    flat_v = [v for col in values for v in col]
    flat_p = [p for col in pixels for p in col]
    lo, hi = min(flat_v), max(flat_v)
    if hi == lo:
        return []
    p_lo = flat_p[flat_v.index(lo)]
    p_hi = flat_p[flat_v.index(hi)]
    scale = (p_hi - p_lo) / (hi - lo)
    for v, p in zip(flat_v, flat_p):
        if abs(p_lo + (v - lo) * scale - p) > 0.02:
            return [f"{what} pixel {p} does not map its value {v!r}"]
    return []


# ---------------------------------------------------------------- study checks

def _entropy_expected(study: Entropy) -> tuple[np.ndarray, np.ndarray]:
    shape = (len(study.sweep[1]), len(study.curves))
    points = [p for _, _, p in study.points()]
    total = entropy_totals(points).reshape(shape)
    sizes = np.array([p["N"] for p in points], dtype=float).reshape(shape)
    return total, sizes


def checkEntropy(name: str, study: Entropy, files: dict[str, bytes]) -> list[str]:
    var, grid = study.sweep
    labels = [lab for lab, _ in study.curves]
    want_header = [var] + [f"S_{lab}" for lab in labels] + (["S_ext"] if study.extended else [])
    want_avg = [var] + [f"S_avg_{lab}" for lab in labels] + (["S_avg_ext"] if study.extended else [])
    problems = []
    try:
        header, rows = parse_csv(files[f"{name}.csv"])
        avg_header, avg_rows = parse_csv(files[f"{name}_avg.csv"])
    except (KeyError, ValueError) as exc:
        return [f"{name}: unreadable CSV: {exc}"]
    if header != want_header:
        problems.append(f"{name}.csv header {header}, expected {want_header}")
    if avg_header != want_avg:
        problems.append(f"{name}_avg.csv header {avg_header}, expected {want_avg}")
    problems += [f"{name}.csv: {p}" for p in check_grid(rows, grid)]
    problems += [f"{name}_avg.csv: {p}" for p in check_grid(avg_rows, grid)]
    if problems:
        return problems

    total, sizes = _entropy_expected(study)
    got = np.array(rows)[:, 1:1 + len(labels)]
    got_avg = np.array(avg_rows)[:, 1:1 + len(labels)]
    bad = ~np.isclose(got, total, rtol=RTOL, atol=ATOL)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        problems.append(f"{name}.csv row {i + 1} {header[j + 1]}: {float(got[i, j])!r}, "
                        f"reference {float(total[i, j])!r} ({int(bad.sum())} cells differ)")
    bad = ~np.isclose(got_avg, total / sizes, rtol=RTOL, atol=ATOL)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        problems.append(f"{name}_avg.csv row {i + 1}: {float(got_avg[i, j])!r}, "
                        f"reference {float(total[i, j] / sizes[i, j])!r}")
    # Property: the average is the total over N (both sides rounded to 12 digits).
    bad = ~np.isclose(got_avg * sizes, got, rtol=ROUND_RTOL, atol=1e-300)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        problems.append(f"{name}: average {float(got_avg[i, j])!r} is not total / N at row {i + 1}")
    # Property: at t = 0 only site 0 is occupied, with probability exp(-a^2),
    # so S(0) = h(exp(-a^2)), which is 0 when a = 0.
    if var == "t":
        for j, (_, curve) in enumerate(study.curves):
            a = {**study.fixed, **curve}.get("a", 0.0)
            want = float(binary_entropy(math.exp(-a * a)))
            if abs(got[0, j] - want) > 1e-15 + ROUND_RTOL * want:
                problems.append(f"{name}: S(t=0) = {float(got[0, j])!r} for a = {a}, expected {want!r}")
    if study.extended:
        for i, r in enumerate(rows):
            N = int(round(r[0]))
            per_site = float(binary_entropy(1.0 / N))
            if not (close(r[-1], N * per_site, ROUND_RTOL, 0) and
                    close(avg_rows[i][-1], per_site, ROUND_RTOL, 0)):
                problems.append(f"{name}: extended-state reference wrong at N = {N}")
                break
    return problems


def check_table_study(name: str, study: Table, files: dict[str, bytes]) -> list[str]:
    var, grid = study.sweep
    try:
        header, rows = parse_csv(files[f"{name}.csv"])
    except (KeyError, ValueError) as exc:
        return [f"{name}: unreadable CSV: {exc}"]
    want = [var, *study.columns]
    if header != want:
        return [f"{name}.csv header {header}, expected {want}"]
    problems = [f"{name}.csv: {p}" for p in check_grid(rows, grid)]
    for r in rows if not problems else []:
        ref = study.values(int(round(r[0])))
        if not all(close(g, w) for g, w in zip(r[1:], ref)):
            problems.append(f"{name}.csv at {var} = {r[0]:g}: {r[1:]}, reference {ref}")
            break
    return problems


def check_study(name: str, files: dict[str, bytes]) -> list[str]:
    """Every check of one bundled study's CSV and SVG files."""
    study = STUDIES[name]
    missing = [f for f in study_files(name) if f not in files]
    if missing:
        return [f"{name}: missing {', '.join(missing)}"]
    if isinstance(study, Entropy):
        problems = checkEntropy(name, study, files)
    else:
        problems = check_table_study(name, study, files)
    for f in study_files(name):
        if f.endswith(".svg"):
            try:
                header, rows = parse_csv(files[f[:-4] + ".csv"])
            except ValueError:
                continue
            problems += [f"{f}: {p}" for p in check_svg(files[f], header, rows)]
    return problems


def check_wide_table(stem: str, call: dict, suffix: str, data: bytes | None) -> list[str]:
    """One ``wide_window`` table: header, grid and every entropy cell."""
    if data is None:
        return [f"{stem}.csv missing"]
    var, start, stop, step = call["sweep"]
    grid = axis(start, stop, step)
    try:
        header, rows = parse_csv(data)
    except ValueError as exc:
        return [f"{stem}.csv unreadable: {exc}"]
    want = [var, "S_avg" if suffix else "S"]
    if header != want:
        return [f"{stem}.csv header {header}, expected {want}"]
    problems = check_grid(rows, grid)
    if problems:
        return [f"{stem}.csv: {p}" for p in problems]
    p = {"a": 0.0, "b": 0.0, **call["params"]}
    N = int(p["N"])
    want = entropy_totals([{**p, var: x} for x in grid]) / (N if suffix else 1)
    got = np.array([r[1] for r in rows])
    bad = ~np.isclose(got, want, rtol=RTOL, atol=ATOL)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{stem}.csv at {var} = {grid[i]:g}: {float(got[i])!r}, reference {float(want[i])!r}"]
    if var == "t":
        want = float(binary_entropy(math.exp(-p["a"] ** 2)))
        if suffix:
            want /= N
        if abs(rows[0][1] - want) > 1e-15 + ROUND_RTOL * want:
            problems.append(f"{stem}.csv: S(t=0) = {rows[0][1]!r}, expected {want!r}")
    return problems


def check_average_relation(total: bytes, avg: bytes, N: int) -> list[str]:
    """Property: each average cell is its total over N."""
    try:
        _, t_rows = parse_csv(total)
        _, a_rows = parse_csv(avg)
    except ValueError:
        return []  # reported by the table checks
    for rt, ra in zip(t_rows, a_rows):
        if not close(ra[1] * N, rt[1], ROUND_RTOL, 1e-300):
            return [f"average {ra[1]!r} is not total {rt[1]!r} / {N}"]
    return []


# ---------------------------------------------------------------- eval

def eval_reference(measure: str, pairs: tuple[str, ...]) -> tuple[float, float, float]:
    """(reference value, rtol, atol) of one ``eval`` invocation."""
    kw = {k: float(v) for k, v in (p.split("=", 1) for p in pairs)}
    model = (int(kw.get("N", 200)), kw.get("c", 30.0), kw.get("t", 0.0),
             kw.get("a", 0.0), kw.get("b", 0.0))
    if measure == "entropy":
        return entropy_total(*model), RTOL, ATOL
    if measure == "ipr":
        return ipr_value(*model), RTOL, ATOL
    if measure == "survival":
        # Property: with the front inside the window nothing has left it.
        N, c, t, a, b = model
        if not front_inside((N - 1) // 2, c * t):
            raise ValueError("survival input has its front outside the window")
        return math.exp(-a * a - b * b * t), 1e-10, 0.0
    if measure == "bessel":
        # Documented accuracy: absolute error below 1e-10.
        return float(jv(int(kw["n"]), kw["x"])), 1e-9, 1e-10
    if measure == "spano":
        return spano(kw["c"], kw["b"], kw.get("t_k", 1.0), int(kw.get("N", 200))), 1e-10, 0.0
    if measure == "chi3":
        return chi3(int(kw["N"]), kw.get("mu", 1.0), kw.get("gamma", 0.5),
                    kw.get("delta_e", 3.0), kw.get("omega", 1.0)), RTOL, 0.0
    if measure == "geometric_entropy":
        return geometric_entropy(int(kw["N"]), int(kw["M"])), RTOL, ATOL
    if measure == "zeta1":
        return zeta1(int(kw["N"])), RTOL, 0.0
    raise ValueError(f"no reference for measure '{measure}'")


def check_eval_output(text: str, reference: tuple[float, float, float]) -> list[str]:
    lines = text.strip().splitlines()
    if len(lines) != 1:
        return [f"expected one line, got {len(lines)}"]
    try:
        got = float(lines[0])
    except ValueError:
        return [f"not a number: {lines[0]!r}"]
    want, rtol, atol = reference
    if not close(got, want, rtol, atol):
        return [f"printed {got!r}, reference {want!r}"]
    return []


# ---------------------------------------------------------------- program properties

def figure_samples(seed: int) -> dict[str, list]:
    """Seeded points of the bundled studies for the property checks.

    rows: (study, n_max, x) Bessel rows the studies evaluate, with the front
    inside the row so the sum rules hold; survival: (study, parameters) with
    the front inside the window; symmetry: (study, N, M).
    """
    rng = random.Random(seed)
    rows, survival, symmetry = [], [], []
    for name, study in STUDIES.items():
        if not isinstance(study, Entropy):
            continue
        points = [p for _, _, p in study.points()]
        inside = [p for p in points if p["c"] * p["t"] > 0
                  and front_inside(p["N"] // 2, p["c"] * p["t"])]
        rows += [(name, p["N"] // 2, p["c"] * p["t"])
                 for p in rng.sample(inside, min(2, len(inside)))]
        inside = [p for p in points if front_inside((p["N"] - 1) // 2, p["c"] * p["t"])]
        if study.sweep[0] == "t":
            survival += [(name, p) for p in rng.sample(inside, min(2, len(inside)))]
    for N in rng.sample(STUDIES["fig4"].sweep[1], 3):
        N = int(N)
        symmetry += [("fig4", N, N // 2 - 1), ("fig5", N, 1), ("fig5", N, 2)]
    return {"rows": rows, "survival": survival, "symmetry": symmetry}


def wide_window_samples(seed: int) -> dict[str, list]:
    """Seeded points of the two ``wide_window`` calls for the property checks."""
    rng = random.Random(seed)
    rows, survival = [], []
    for call in workloads.wide_window_calls(seed):
        var, start, stop, step = call["sweep"]
        points = [{"a": 0.0, "b": 0.0, **call["params"], var: x} for x in axis(start, stop, step)]
        N = int(call["params"]["N"])
        inside = [p for p in points if p["c"] * p["t"] > 0
                  and front_inside(N // 2, p["c"] * p["t"])]
        rows += [(call["stem"], N // 2, p["c"] * p["t"]) for p in rng.sample(inside, 3)]
        inside = [p for p in points if front_inside((N - 1) // 2, p["c"] * p["t"])]
        survival += [(call["stem"], p) for p in rng.sample(inside, 2)]
    return {"rows": rows, "survival": survival, "symmetry": []}


def check_program_properties(program, samples: dict[str, list]):
    """Yield (operation, problem) for each property the program's own
    functions break on the sampled points: the closure and second-moment sum
    rules and the documented 1e-10 accuracy of Bessel rows, the closed-form
    window survival, and the M <-> N - M symmetry of the geometric entropy.
    A function a later version no longer exports is skipped."""
    bessel_j_row = getattr(program, "bessel_j_row", None)
    window_survival = getattr(program, "window_survival", None)
    model = getattr(program, "ModelParams", None)
    geometric = getattr(program, "geometric_entropy", None)
    state = getattr(program, "SymmetricState", None)
    for op, n_max, x in samples["rows"] if bessel_j_row else ():
        try:
            row = np.asarray(bessel_j_row(n_max, x), dtype=float)
        except Exception as exc:
            yield op, f"bessel_j_row({n_max}, {x!r}) raised {exc!r}"
            continue
        n = np.arange(len(row))
        closure = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
        moment = 2.0 * np.sum(n * n * row * row)
        if len(row) != n_max + 1:
            yield op, f"bessel_j_row({n_max}, {x!r}) has {len(row)} orders"
        elif abs(closure - 1.0) > 1e-12:
            yield op, f"closure J0^2 + 2 sum Jn^2 = {float(closure)!r} at x = {x!r}"
        elif abs(moment - x * x / 2.0) > 1e-12 * max(1.0, x * x / 2.0):
            yield op, f"second moment {float(moment)!r} != x^2/2 = {x * x / 2.0!r}"
        elif np.max(np.abs(row - jv(n, x))) > 1e-10:
            yield op, f"bessel_j_row({n_max}, {x!r}) is off scipy by more than 1e-10"
    for op, p in samples["survival"] if window_survival and model else ():
        want = math.exp(-p["a"] ** 2 - p["b"] ** 2 * p["t"])
        try:
            got = window_survival(p["t"], model(a=p["a"], b=p["b"], c=p["c"],
                                          t_k=1.0, N=int(p["N"])))
        except Exception as exc:
            yield op, f"window_survival raised {exc!r}"
            continue
        if not close(got, want, 1e-11, 0.0):
            yield op, f"window_survival = {got!r}, closed form exp(-a^2 - b^2 t) = {want!r}"
    for op, N, M in samples["symmetry"] if geometric and state else ():
        left, right = geometric(state(N, M)), geometric(state(N, N - M))
        if not close(left, right, 1e-12, 1e-15):
            yield op, f"geometric entropy not symmetric at N = {N}, M = {M}: {left!r}, {right!r}"
