"""The model families are dispatched on in a fixed, short list of places.

Family formulas live on the infimum-law objects (``lastzero.laws``); the
rest of the package asks a model for its law or its Brownian equivalent
instead of testing its class.  The allowed class tests are the choice of
the Cramer-Lundberg event engine and the guards of the Brownian-only
closed forms.
"""

import ast
from pathlib import Path

import lastzero

MODEL_CLASSES = {"BrownianDrift", "CramerLundberg", "BetaFamily"}
ALLOWED = {
    ("mc.py", "simulate_paths", "CramerLundberg"),
    ("scale.py", "w_q_brownian", "BrownianDrift"),
    ("stopping.py", "expected_g", "BrownianDrift"),
    ("stopping.py", "laplace_g_brownian", "BrownianDrift"),
    ("cli.py", "_cmd_verify", "BrownianDrift"),
}


def _class_names(node):
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {e.attr if isinstance(e, ast.Attribute) else getattr(e, "id", None) for e in elts}


def _model_isinstance_sites(path):
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            for cls in sorted(_class_names(node.args[1]) & MODEL_CLASSES):
                sites.append((path.name, func, cls))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_model_class_tests_are_the_allowed_sites():
    src = Path(lastzero.__file__).parent
    sites = [s for p in sorted(src.glob("*.py")) for s in _model_isinstance_sites(p)]
    assert sorted(sites) == sorted(ALLOWED)
