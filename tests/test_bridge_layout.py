"""The Brownian route keeps its bridge laws in one place.

``lastzero.pieces`` holds every Brownian-bridge law as a pure function of
end points, variances, lengths and uniforms; ``lastzero.bridge`` runs the
block loop and its bookkeeping and calls the kernel for every law.  A new
law goes into the kernel, where its unit test (``tests/test_pieces.py``)
can reach it, instead of being written out inside the block loop.  The
route keeps no gain code either: ``mc.simulate_paths`` takes a path's gain
integral as |g - tau| - g from the route's results.
"""

import ast
from pathlib import Path

import lastzero
from lastzero import pieces

SRC = Path(lastzero.__file__).parent
# the functions a bridge law is written with
LAW_CALLS = {("np", "sqrt"), ("np", "log"), ("np", "log1p"), ("np", "exp"), ("special", "ndtri")}
DRAWS = {"random", "standard_normal", "standard_exponential", "normal", "default_rng", "Generator"}


def _tree(name):
    return ast.parse((SRC / name).read_text())


def _attribute_calls(tree):
    return {(n.func.value.id, n.func.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and isinstance(n.func.value, ast.Name)}


def test_bridge_writes_no_bridge_law():
    tree = _tree("bridge.py")
    assert not _attribute_calls(tree) & LAW_CALLS
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "special" not in names and "BRIDGE_REACH" not in names
    laws = {n for n in vars(pieces) if callable(getattr(pieces, n)) and not n.startswith("__")}
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not defined & laws


def test_kernel_draws_nothing():
    calls = {n.func.attr for n in ast.walk(_tree("pieces.py"))
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    assert not calls & DRAWS


def test_bridge_keeps_no_gain_code():
    tree = _tree("bridge.py")
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
    assert not names & {"gint", "gint_cum", "want_gint"}


def test_bridge_has_one_stop_rule_and_no_carried_last_zero():
    # every run stops at the end of the block in which it passes its top
    # level, and each block draws its last zero at once: no stop step, no
    # stop time and no last-zero piece kept from one block to the next
    names = {n.id for n in ast.walk(_tree("bridge.py")) if isinstance(n, ast.Name)}
    assert not names & {"zt", "zm", "zlen", "t_stop", "kstop"}
