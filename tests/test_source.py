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


TESTS = os.path.dirname(os.path.abspath(__file__))
# the one patch allowed: the tie-rule test nudges each restart's value
ALLOWED_PATCHES = [("test_isodiametric.py", "test_search_best_restart_does_not_turn_on_rounding",
                    "_search_one")]


def _search_internals_patched(tree):
    """(top-level function, name) for each ``setattr(isodiametric, "_name",
    ...)`` call in a module's tree, whatever object ``setattr`` is called on
    (``monkeypatch``, a ``MonkeyPatch`` context), and for the string form
    ``setattr("geomoment.isodiametric._name", ...)``; a call outside any
    function is reported under "<module>"."""
    found = []
    for stmt in tree.body:
        where = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setattr" and node.args):
                continue
            target, name = node.args[0], None
            if (isinstance(target, ast.Name) and target.id == "isodiametric" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)):
                name = node.args[1].value
            elif isinstance(target, ast.Constant) and isinstance(target.value, str):
                module, _, name = target.value.rpartition(".")
                name = name if module.endswith("isodiametric") else None
            if isinstance(name, str) and name.startswith("_"):
                found.append((where, name))
    return found


def test_no_test_patches_the_search_internals():
    # parity tests compare the search with the reference ascent in
    # test_isodiametric.py, which has a switch for each of its shortcuts,
    # so a change to the search's internals needs no patch of them
    modules = sorted(f for f in os.listdir(TESTS) if f.startswith("test_") and f.endswith(".py"))
    assert "test_isodiametric.py" in modules
    found = []
    for name in modules:
        with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [(name, *patch) for patch in _search_internals_patched(tree)]
    assert found == ALLOWED_PATCHES
    # the check sees both spellings, in a fixture's context and at module
    # level, on isodiametric and on private names only
    probe = ast.parse(
        "def test_a(monkeypatch):\n"
        "    monkeypatch.setattr(isodiametric, '_finish', None)\n"
        "    monkeypatch.setattr(isodiametric, 'search_max', None)\n"
        "    monkeypatch.setattr(geometry, '_Span', None)\n"
        "    monkeypatch.setattr('geomoment.isodiametric._outward', None)\n"
        "    with pytest.MonkeyPatch.context() as mp:\n"
        "        mp.setattr(isodiametric, '_guess_ball', None)\n"
        "pytest.MonkeyPatch().setattr(isodiametric, '_jung_floor', None)\n")
    assert _search_internals_patched(probe) == [
        ("test_a", "_finish"), ("test_a", "_outward"), ("test_a", "_guess_ball"),
        ("<module>", "_jung_floor")]


def _rescalings(tree):
    """(top-level function, line) for each use of ``frexp`` or ``ldexp`` in
    a module's tree, as a name or an attribute (``math.frexp``, ``np.ldexp``);
    one outside any function is reported under "<module>"."""
    found = []
    for stmt in tree.body:
        where = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("frexp", "ldexp") and isinstance(node, (ast.Name, ast.Attribute)):
                found.append((where, node.lineno))
            elif isinstance(node, ast.alias) and node.name.rpartition(".")[2] in ("frexp", "ldexp"):
                found.append((where, stmt.lineno))
    return found


def test_only_the_frame_rescales():
    # geometry._frame picks the one power of two every scale-free routine
    # divides by; a routine that picks its own would grow back the
    # per-routine rescaling the frame replaced
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    found = []
    for name in modules:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [(name, where) for where, _ in _rescalings(tree)]
    assert set(found) == {("geometry.py", "_frame")}
    # the check sees names, attributes and imports, at module level too
    probe = ast.parse("from math import frexp\n"
                      "def f(x):\n    return math.ldexp(1.0, np.frexp(x)[1])\n"
                      "def g(x):\n    return ldexp(x, 2) + x.real\n")
    assert _rescalings(probe) == [("<module>", 1), ("f", 3), ("f", 3), ("g", 5)]
