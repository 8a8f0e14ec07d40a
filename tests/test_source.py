"""Checks on the package's source text."""

import ast
import os

import geomoment

PACKAGE = os.path.dirname(os.path.abspath(geomoment.__file__))


def _builtin_sum_calls(tree):
    """Line numbers of the calls to the builtin ``sum`` in a module's tree:
    ``sum(...)`` and ``builtins.sum(...)``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "sum") or (
                isinstance(f, ast.Attribute) and f.attr == "sum"
                and isinstance(f.value, ast.Name) and f.value.id == "builtins"):
            lines.append(node.lineno)
    return lines


def test_no_builtin_sum():
    # from Python 3.12 on the builtin sum compensates its rounding, so the
    # same floats add to different sums on different Pythons; the search's
    # plain-float steps and geometry._Span add left to right instead
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "isodiametric.py" in modules and "geometry.py" in modules
    found = []
    for name in modules:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{line}" for line in _builtin_sum_calls(tree)]
    assert found == []
    # the check sees both spellings, and not numpy's sum or a method's
    probe = ast.parse("sum(x)\nbuiltins.sum(x, 0.0)\nnp.sum(x)\nx.sum()\nmath.fsum(x)\n")
    assert _builtin_sum_calls(probe) == [1, 2]
