import ast
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import jband_sim
from jband_sim.core import (
    AggregateDensityMatrix,
    ModelParams,
    OccupationProfile,
    make_window,
)
from jband_sim.measures import average_concurrence, extended_state_entropy
from jband_sim.multipartite import (
    SusceptibilityParams,
    SymmetricState,
    chi3_magnitude,
    geometric_entropy,
    zeta_ratios,
)
from jband_sim.propagator import occupation_profile
from jband_sim.specfun import bessel_j, bessel_j_row


def test_validate_accepts_reference_parameters():
    p = ModelParams(a=0.0, b=0.0, c=30.0, t_k=1.0, N=200.0)
    assert (p.a, p.b, p.c, p.t_k, p.N) == (0.0, 0.0, 30.0, 1.0, 200)
    assert type(p.N) is int


def test_validate_rejects_zero_transfer_rate():
    with pytest.raises(ValueError, match="c must be positive"):
        ModelParams(a=0.0, b=0.0, c=0.0, t_k=1.0, N=10)


def test_validate_rejects_single_site_chain():
    with pytest.raises(ValueError, match="N must be >= 2"):
        ModelParams(a=0.5, b=0.3, c=20.0, t_k=2.0, N=1)


@pytest.mark.parametrize("field,value", [
    ("a", -0.1), ("a", float("nan")), ("b", -1.0),
    ("c", -5.0), ("c", float("inf")), ("t_k", 0.0), ("t_k", -2.0),
])
def test_validate_rejects_out_of_domain_fields(field, value):
    base = dict(a=0.0, b=0.0, c=30.0, t_k=1.0, N=10)
    base[field] = value
    with pytest.raises(ValueError, match=field.split("_")[0]):
        ModelParams(**base)


def test_validate_is_idempotent():
    # Rebuilding a validated record (as dataclasses.replace does) re-validates
    # it and yields an equal record.
    p = ModelParams(a=0.2, b=0.1, c=5.0, t_k=2.0, N=64)
    assert replace(p) == p
    assert replace(p, N=64.0) == p


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("call", [
    make_window,
    lambda v: bessel_j(v, 1.0),
    lambda v: bessel_j_row(v, 1.0),
    lambda v: occupation_profile(1.0, ModelParams(a=0.0, b=0.0, c=30.0, t_k=1.0, N=v)),
    lambda v: geometric_entropy(SymmetricState(v, 1)),
    zeta_ratios,
    lambda v: chi3_magnitude(v, SusceptibilityParams(mu=1.0, gamma=0.5, delta_e=3.0, omega=1.0)),
    extended_state_entropy,
    lambda v: average_concurrence(2.0, v),
], ids=["make_window", "bessel_j", "bessel_j_row", "occupation_profile",
        "geometric_entropy", "zeta_ratios", "chi3_magnitude",
        "extended_state_entropy", "average_concurrence"])
def test_non_finite_integer_arguments_are_domain_errors(call, value):
    with pytest.raises(ValueError, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("call", [
    extended_state_entropy,
    lambda v: average_concurrence(2.0, v),
], ids=["extended_state_entropy", "average_concurrence"])
def test_non_integral_site_counts_are_domain_errors(call):
    with pytest.raises(ValueError, match="N must be an integer"):
        call(2.5)
    assert call(4.0) == call(4)


def test_window_odd():
    assert tuple(make_window(3)) == (-1, 0, 1)


def test_window_even_convention():
    assert tuple(make_window(4)) == (-2, -1, 0, 1)


def test_window_reference_size():
    assert make_window(200) == range(-100, 100)


def test_window_rejects_tiny_n():
    with pytest.raises(ValueError):
        make_window(1)


@given(st.integers(min_value=2, max_value=500))
def test_window_properties(N):
    w = make_window(N)
    assert len(w) == N
    assert 0 in w
    assert all(b - a == 1 for a, b in zip(w, w[1:]))
    assert w[0] == -(N // 2)
    assert w[-1] == (N // 2 if N % 2 else N // 2 - 1)


def test_profile_rejects_out_of_range_probability():
    for u in ([0.0, 1.2, 0.0], [np.nan, 0.5]):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            OccupationProfile(u=np.array(u), t=0.0)


def test_profile_rejects_excess_total():
    with pytest.raises(ValueError):
        OccupationProfile(u=np.array([0.5, 0.6, 0.2]), t=0.0)


def test_profile_rejects_shape_mismatch():
    # A profile is one probability per site of a window of at least 2 sites.
    with pytest.raises(ValueError, match="u must be a vector"):
        OccupationProfile(u=np.array([[0.5, 0.0], [0.0, 0.5]]), t=0.0)
    with pytest.raises(ValueError, match="u must be a vector"):
        OccupationProfile(u=np.array([1.0]), t=0.0)
    for u in (0.5, "10"):  # a scalar, and a string that is not a list of digits
        with pytest.raises(ValueError, match="u must be a vector"):
            OccupationProfile(u=u, t=0.0)


def test_profile_is_readonly():
    prof = OccupationProfile(u=np.array([0.0, 1.0, 0.0]), t=0.0)
    with pytest.raises(TypeError):  # a tuple
        prof.u[0] = 0.5


def test_density_matrix_rejects_negative_entries():
    with pytest.raises(ValueError):
        AggregateDensityMatrix(entries=np.array([[0.5, -0.1], [-0.1, 0.5]]))


def test_density_matrix_rejects_asymmetry():
    with pytest.raises(ValueError):
        AggregateDensityMatrix(entries=np.array([[0.5, 0.2], [0.1, 0.5]]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_density_matrix_rejects_non_finite_entries(bad):
    # Checked before symmetry: a NaN is never equal to itself.
    with pytest.raises(ValueError, match="coherence magnitudes must be finite"):
        AggregateDensityMatrix(entries=np.array([[0.5, bad], [bad, 0.5]]))


def test_density_matrix_rejects_excess_trace():
    with pytest.raises(ValueError):
        AggregateDensityMatrix(entries=np.array([[0.8, 0.0], [0.0, 0.4]]))


def test_density_matrix_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        AggregateDensityMatrix(entries=np.full((2, 3), 0.1))
    with pytest.raises(ValueError, match="square"):
        AggregateDensityMatrix(entries=np.full(3, 0.1))
    with pytest.raises(ValueError, match="empty"):
        AggregateDensityMatrix(entries=np.zeros((0, 0)))


# The public names of the package.  The benchmark's property checks look up
# bessel_j_row, window_survival, ModelParams, geometric_entropy and
# SymmetricState by name and skip a check whose name is missing, so dropping
# an export must fail here instead.
PUBLIC_NAMES = {
    "AggregateDensityMatrix", "ConcurrenceReport", "ConfigError", "CsvTable",
    "DipolePair", "DispersionParams", "EXPERIMENTS", "EntropyReport",
    "ExperimentSpec", "ModelParams", "OccupationProfile", "SusceptibilityParams",
    "SweepAxis", "SymmetricState", "TwoBranchHamiltonian", "average_concurrence",
    "bessel_j", "bessel_j_row", "chi3_magnitude", "coherence_size",
    "coupling_sum_nn", "dipole_coupling", "emit_svg",
    "entropy_report", "exciton_energy", "extended_state_entropy",
    "geometric_entropy", "ipr", "lambda_max", "make_window", "occupation_profile",
    "parse_config", "render_csv",
    "render_svg", "resonance_coherence_size",
    "run_experiment", "run_experiment_outputs", "site_entropy",
    "spano_coherence_size", "transfer_probability", "two_exciton_diagonalize",
    "window_survival", "write_csv", "zeta_ratios",
}


def test_public_names_are_pinned():
    exported = {name for name in dir(jband_sim) if not name.startswith("_")
                and not isinstance(getattr(jband_sim, name), types.ModuleType)}
    assert exported == PUBLIC_NAMES


def unused_module_imports(source: str) -> list[str]:
    """Names that ``source`` imports at module level (``if`` blocks included) and never reads."""
    tree = ast.parse(source)
    imported = {}

    def collect(body):
        for node in body:
            if isinstance(node, ast.If):  # ``if TYPE_CHECKING:`` imports count too
                collect(node.body)
                collect(node.orelse)
            elif isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)

    collect(tree.body)
    nodes = list(ast.walk(tree))
    # A quoted annotation is read too: parse it as an expression.
    annotations = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            nodes += ast.walk(ast.parse(ann.value, mode="eval"))
    used = {n.id for n in nodes if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_module_imports_are_found():
    source = ("from __future__ import annotations\nimport math, os.path\n"
              "from typing import TYPE_CHECKING, Sequence\nif TYPE_CHECKING:\n    import numpy as np\n"
              "def f(u: 'np.ndarray') -> int:\n    return TYPE_CHECKING\n")
    assert unused_module_imports(source) == ["line 2: math", "line 2: os", "line 3: Sequence"]


@pytest.mark.parametrize("path", sorted(Path(jband_sim.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert unused_module_imports(path.read_text(encoding="utf-8")) == []
