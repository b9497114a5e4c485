"""Tests for the package's public surface: `minvar.__all__` and the modules' `__all__`."""

import ast
from pathlib import Path

import minvar

PUBLIC = [
    "ActiveSetError", "AssetUniverse", "CovMatrix", "CovarianceError", "CriticalPhaseError",
    "CriticalPoint", "Histogram", "NoConvergenceError", "OptimalPortfolio",
    "PhaseBoundaryError", "PointSummary", "QpResult", "RegularizerParams", "ReplicaSolution",
    "TrialConfig", "WeightMixture", "__version__", "brute_force_noshort", "build_mixture",
    "critical_asymptotics", "free_energy_functional", "general_l1_solve", "generate_returns",
    "kkt_residual", "min_variance_equality", "min_variance_noshort", "norm_cdf",
    "norm_cdf_int", "norm_pdf", "noshort_lambda", "noshort_solution", "run_trial",
    "sample_weights", "stationarity_residual", "sweep", "true_optimum",
    "unconstrained_solution", "weight_histogram",
]


def test_each_public_name_is_declared_once():
    assert sorted(minvar.__all__) == PUBLIC
    namespace = {}
    exec("from minvar import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC
    # read statically: importing minvar.__main__ would run the command line
    for path in sorted(Path(minvar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = [node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")]
        declares = any(getattr(t, "id", None) == "__all__"
                       for node in tree.body if isinstance(node, ast.Assign)
                       for t in node.targets)
        assert declares or not defined, f"{path.name} defines {defined} without __all__"
        if path.name == "__init__.py":  # the package re-exports, it lists no name itself
            listed = {node.value for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)}
            assert listed & set(PUBLIC) == {"__version__"}
