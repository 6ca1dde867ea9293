"""Source hygiene of the package, checked with the standard library only."""

import ast
import builtins
import re
import sys
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "mbhalf").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(tree):
    """Names bound by an import (``from __future__`` excepted) that the
    module never reads; a name listed in ``__all__`` counts as read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _definitions(tree):
    """Names a module binds at top level by def, class or assignment, with
    their lines; names with two leading underscores (``__all__``,
    ``__getattr__``) excepted."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        found.append((node.lineno, leaf.id))
    return [(line, name) for line, name in found if not name.startswith("__")]


def _reads(tree):
    """Names a module reads: loaded names, attribute names and names it
    imports from elsewhere."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread(trees, private, readers=()):
    """(module, line, name) of every private (or, with ``private`` false,
    public) top-level name of ``trees`` (a name -> tree mapping) that no
    tree of ``trees`` or ``readers`` reads."""
    read = set().union(*map(_reads, [*trees.values(), *readers]))
    return sorted((mod, line, name) for mod, tree in trees.items()
                  for line, name in _definitions(tree)
                  if name.startswith("_") == private and name not in read)


def _parse_all(paths):
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in paths}


def test_no_unread_private_names():
    unread = _unread(_parse_all(SRC), private=True)
    assert not unread, ", ".join("%s:%d %s" % item for item in unread)


def test_unread_private_detector():
    trees = {"a.py": ast.parse("_K = 3\n"
                               "_dead, PUBLIC = 1, 2\n"
                               "def _helper():\n"
                               "    return _K\n"
                               "class _Gone:\n"
                               "    pass\n"
                               "def __getattr__(name):\n"
                               "    _local = 1\n"),
             "b.py": ast.parse("from a import _helper\n")}
    assert _unread(trees, private=True) == [("a.py", 2, "_dead"),
                                            ("a.py", 5, "_Gone")]


#: the files whose reads keep a public name of the package alive
READERS = sorted(path for part in ("src", "tests", "perfbench")
                 for path in (SRC[0].parents[2] / part).rglob("*.py"))


def test_no_unread_public_names():
    # a public def, class or constant that no module, test or benchmark
    # reads is dead code
    readers = [ast.parse(path.read_text(), filename=str(path))
               for path in READERS]
    unread = _unread(_parse_all(SRC), private=False, readers=readers)
    assert not unread, ", ".join("%s:%d %s" % item for item in unread)


def test_unread_public_detector():
    trees = {"a.py": ast.parse("LIMIT = 3\n"
                               "_k, UNUSED = 1, 2\n"
                               "def helper():\n"
                               "    return LIMIT + _k\n"
                               "class Gone:\n"
                               "    pass\n"
                               "def checked():\n"
                               "    pass\n"
                               "__all__ = ['Gone']\n")}
    readers = [ast.parse("from a import helper\n"),
               ast.parse("import a\n"
                         "a.checked()\n")]
    assert _unread(trees, private=False, readers=readers) == [
        ("a.py", 2, "UNUSED"), ("a.py", 5, "Gone")]
    assert _unread(trees, private=False) == [
        ("a.py", 2, "UNUSED"), ("a.py", 3, "helper"), ("a.py", 5, "Gone"),
        ("a.py", 7, "checked")]


def _references(tree, names):
    """Lines that name one of ``names``: a name, an attribute, an import or
    a string constant equal to it (as in getattr(mp, "meijerg"))."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            found = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found = [node.value]
        else:
            continue
        if names.intersection(found):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_meijerg_in_library(path):
    # mpmath's meijerg is the tests' outside oracle; a library route that
    # called it would no longer be checked by it
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _references(tree, {"meijerg"})
    assert not found, "%s references meijerg on lines %s" % (path.name, found)


def test_meijerg_detector():
    tree = ast.parse("from mpmath import mp, meijerg\n"
                     "x = mp.meijerg([[], []], [[0], []], 1)\n"
                     "y = getattr(mp, 'meijerg')\n"
                     "'Checked against meijerg in the tests.'\n"
                     "z = mp.hyper([], [1], 1)\n")
    assert _references(tree, {"meijerg"}) == [1, 2, 3]


#: mpmath's integrators; the package's one quadrature rule is
#: ``mpcore.quad_ts`` (``mp.gauss_quadrature``, a node generator, is allowed)
MPMATH_INTEGRATORS = {"quad", "quadts", "quadgl", "quadosc", "quadsubdiv"}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_mpmath_integrator_in_library(path):
    # mp.quad is the tests' oracle for the package's own quadrature
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _references(tree, MPMATH_INTEGRATORS)
    assert not found, "%s calls an mpmath integrator on lines %s" % (
        path.name, found)


def test_mpmath_integrator_detector():
    tree = ast.parse("from mpmath import quadgl\n"
                     "a = mp.quad(f, [0, 1])\n"
                     "b = mpmath.quadosc(f, [0, mp.inf], omega=1)\n"
                     "c = getattr(mp, 'quadts')\n"
                     "d = quad_ts(f, 0, 1)\n"
                     "X, W = mp.gauss_quadrature(8, 'legendre')\n"
                     "e = mp.quadsubdiv(f, [0, 1])\n")
    assert _references(tree, MPMATH_INTEGRATORS) == [1, 2, 3, 4, 7]


def test_sources_found():
    assert len(SRC) >= 8


@pytest.mark.parametrize("path", SRC + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, ", ".join("%s:%d %s" % (path.name, line, name)
                                 for line, name in unused)


def test_unused_import_detector():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "import numpy as np\n"
                     "from typing import Callable, Sequence\n"
                     "__all__ = ['Callable']\n"
                     "def f():\n"
                     "    from math import gamma\n"
                     "    return np.zeros(1)\n")
    assert _unused_imports(tree) == [(2, "os"), (4, "Sequence"), (7, "gamma")]


def _raise_calls(tree, names=("workdps", "working")):
    """The calls in ``tree`` of ``mp.workdps(...)`` or ``working(...)`` (of
    those in ``names``)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None))
        if name in names:
            yield node


def _raise_arguments(tree, names=("workdps", "working")):
    """Every argument, keywords included, of those calls."""
    for node in _raise_calls(tree, names):
        yield from node.args + [k.value for k in node.keywords]


def _workdps_literals(tree):
    """Lines where an integer literal appears inside the arguments of a
    ``workdps(...)`` or ``working(...)`` call: guard digits written out by
    hand instead of the guard of mpcore.working or a cancellation
    estimate."""
    return sorted({leaf.lineno for arg in _raise_arguments(tree)
                   for leaf in ast.walk(arg)
                   if isinstance(leaf, ast.Constant) and type(leaf.value) is int})


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_literal_guard_digits(path):
    # one precision policy: every raise is d + GUARD_DIGITS, plus a
    # cancellation that a function computes
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _workdps_literals(tree)
    assert not found, "%s: integer literal in workdps on lines %s" % (
        path.name, found)


def test_workdps_literal_detector():
    tree = ast.parse("with mp.workdps(d + 10):\n"
                     "    pass\n"
                     "with mp.workdps(d + GUARD_DIGITS):\n"
                     "    pass\n"
                     "with mp.workdps(max(64, n * k)):\n"
                     "    pass\n"
                     "with mp.workdps(dps=d + guard(r, 1.0 / 3.0)):\n"
                     "    pass\n"
                     "x = mp.mpf(10) ** (d + 5)\n"
                     "with working(d, lost + 5) as d:\n"
                     "    pass\n"
                     "with working(dps, extra=lost):\n"
                     "    pass\n")
    assert _workdps_literals(tree) == [1, 5, 10]


#: the names of the precision rule that only mpcore may use
_POLICY_NAMES = {"GUARD_DIGITS", "_resolve_dps"}


def _policy_breaches(tree):
    """Lines that import GUARD_DIGITS or _resolve_dps, or that pass
    ``mp.workdps`` an argument naming GUARD_DIGITS: a working-digit raise
    made by hand instead of through mpcore.working."""
    lines = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and _POLICY_NAMES & {alias.name for alias in node.names}}
    lines.update(leaf.lineno
                 for arg in _raise_arguments(tree, names=("workdps",))
                 for leaf in ast.walk(arg)
                 if (isinstance(leaf, ast.Name) and leaf.id == "GUARD_DIGITS")
                 or (isinstance(leaf, ast.Attribute)
                     and leaf.attr == "GUARD_DIGITS"))
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "mpcore.py"],
                         ids=lambda p: p.name)
def test_precision_rule_stays_in_mpcore(path):
    # one precision policy: outside mpcore every raise of the working
    # digits goes through mpcore.working; the CLI's workdps sets the
    # absolute digits of --precision
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _policy_breaches(tree)
    assert not found, "%s: raise made outside mpcore.working on lines %s" % (
        path.name, found)


def test_policy_breach_detector():
    tree = ast.parse("from .mpcore import GUARD_DIGITS, gamma\n"
                     "from .mpcore import (_resolve_dps,\n"
                     "                     working)\n"
                     "from .mpcore import working\n"
                     "with mp.workdps(d + mpcore.GUARD_DIGITS):\n"
                     "    pass\n"
                     "with mp.workdps(precision):\n"
                     "    pass\n"
                     "with working(d, GUARD_DIGITS):\n"
                     "    pass\n"
                     "x = GUARD_DIGITS\n")
    assert _policy_breaches(tree) == [1, 2, 5]


def _workdps_calls(tree):
    """Lines that call ``workdps(...)``, as ``mp.workdps`` or bare: a change
    of the working precision made outside mpcore.working."""
    return sorted(node.lineno
                  for node in _raise_calls(tree, names=("workdps",)))


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_workdps_only_in_the_cli(path):
    # every raise of the working precision goes through mpcore.working;
    # only the CLI sets the ambient digits its --precision names
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _workdps_calls(tree)
    assert not found, "%s: mp.workdps called on lines %s" % (path.name, found)


def test_workdps_call_detector():
    tree = ast.parse("with mp.workdps(prec):\n"
                     "    pass\n"
                     "with working(d) as d:\n"
                     "    pass\n"
                     "with workdps(dps=d):\n"
                     "    pass\n"
                     "mp.workdps()\n"
                     "# mp.workdps(d)\n"
                     "x = mp.workdps\n")
    assert _workdps_calls(tree) == [1, 5, 7]


#: calls that make a dict
_DICT_MAKERS = {"dict", "OrderedDict", "defaultdict"}
#: dict methods that write to it
_DICT_WRITES = {"setdefault", "update", "pop", "popitem", "clear", "move_to_end"}


def _hand_rolled_caches(tree):
    """Lines that import or name ``OrderedDict``, and the lines binding a
    module-level dict that a function writes to: a memo kept by hand
    instead of ``functools.lru_cache``."""
    lines = {node.lineno for node in ast.walk(tree)
             if (isinstance(node, (ast.Import, ast.ImportFrom))
                 and any(alias.name.split(".")[-1] == "OrderedDict"
                         for alias in node.names))
             or (isinstance(node, ast.Attribute) and node.attr == "OrderedDict")}
    dicts = {}
    for node in tree.body:
        value = getattr(node, "value", None)
        maker = getattr(value, "func", None)
        if not (isinstance(node, (ast.Assign, ast.AnnAssign))
                and (isinstance(value, (ast.Dict, ast.DictComp))
                     or getattr(maker, "id", getattr(maker, "attr", None))
                     in _DICT_MAKERS)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        dicts.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                owner = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _DICT_WRITES):
                owner = node.func.value
            else:
                continue
            if isinstance(owner, ast.Name) and owner.id in dicts:
                lines.add(dicts[owner.id])
    return sorted(lines)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_hand_rolled_caches(path):
    # one memo mechanism: every cache is a functools.lru_cache, whose key
    # is the function's arguments and whose cache_info() reports its hits
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _hand_rolled_caches(tree)
    assert not found, "%s: hand-rolled cache on lines %s" % (path.name, found)


def test_hand_rolled_cache_detector():
    tree = ast.parse("from collections import OrderedDict, namedtuple\n"
                     "import collections\n"
                     "_cache = {}\n"
                     "_memo = dict()\n"
                     "_lru = collections.OrderedDict()\n"
                     "_TABLE = {'a': 1}\n"
                     "_unused = {}\n"
                     "def get(key):\n"
                     "    local = {}\n"
                     "    local[key] = _TABLE[key]\n"
                     "    _cache[key] = 1\n"
                     "    _lru.move_to_end(key)\n"
                     "    return _memo.setdefault(key, local)\n")
    assert _hand_rolled_caches(tree) == [1, 3, 4, 5]


#: modules whose certificate and factorization sums must stay on mp.fdot
_DOT_MODULES = ("finiten.py", "mpcore.py")


def _rounded_product_sums(tree):
    """Lines of an ``fsum(...)`` call whose argument is a generator or list
    of products of two indexed operands (``x[i] * y[i] for ...``): a dot
    product that rounds every product before summing, where ``mp.fdot``
    sums the exact products and rounds once."""
    lines = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and (getattr(node.func, "attr", None) == "fsum"
                     or getattr(node.func, "id", None) == "fsum")):
            continue
        arg = node.args[0]
        if (isinstance(arg, (ast.GeneratorExp, ast.ListComp))
                and isinstance(arg.elt, ast.BinOp)
                and isinstance(arg.elt.op, ast.Mult)
                and isinstance(arg.elt.left, ast.Subscript)
                and isinstance(arg.elt.right, ast.Subscript)):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in SRC if p.name in _DOT_MODULES],
                         ids=lambda p: p.name)
def test_dot_products_round_once(path):
    # the LDU, its inverses and the biorthogonality certificate round each
    # dot product once, through mp.fdot
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _rounded_product_sums(tree)
    assert not found, "%s: fsum of rounded products on lines %s" % (
        path.name, found)


def test_rounded_product_sum_detector():
    tree = ast.parse("a = mp.fsum(x[i] * y[i] for i in range(3))\n"
                     "b = fsum([row[k] * q.c[k][j] for k in ks])\n"
                     "c = mp.fsum(abs(c) * T ** i for i, c in enumerate(p))\n"
                     "d = mp.fsum(x[i] + y[i] for i in range(3))\n"
                     "e = mp.fdot(x[i] * y[i] for i in range(3))\n"
                     "f = mp.fsum(c * v[i] for i, c in enumerate(p))\n"
                     "g = mp.fsum(x[i] * y[i] * z[i] for i in range(3))\n")
    assert _rounded_product_sums(tree) == [1, 2]


def _float_of_abs(tree):
    """Lines of a ``float(abs(...))`` or ``float(log(abs(...)))`` call (the
    log bare or an attribute such as ``mp.log``): a modulus, and a log of
    it, taken at the working precision (an mpmath hypot for an mpc) only to
    be read as a float, where the float parts or the mantissas and
    exponents give it for a float's cost."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "float"
                and len(node.args) == 1):
            continue
        arg = node.args[0]
        if (isinstance(arg, ast.Call) and arg.args
                and "log" in (getattr(arg.func, "id", None),
                              getattr(arg.func, "attr", None))):
            arg = arg.args[0]
        if isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "abs":
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_float_of_a_full_precision_modulus(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _float_of_abs(tree)
    assert not found, (
        "%s: float(abs(...)) or float(log(abs(...))) on lines %s"
        % (path.name, found))


def test_float_of_abs_detector():
    tree = ast.parse("a = float(abs(z))\n"
                     "b = abs(float(c))\n"
                     "c = math.hypot(float(z.real), float(z.imag))\n"
                     "d = [float(abs(x - y)) for x, y in pairs]\n"
                     "e = float(mp.fabs(x))\n"
                     "f = float(x) + abs(y)\n"
                     "g = float(mp.log(abs(w)))\n"
                     "h = float(log(abs(s - 1)))\n"
                     "i = float(mp.log(w))\n"
                     "j = math.log(abs(float(w)))\n"
                     "m = mp.log(float(abs(w)))\n"
                     "n = float(mp.exp(abs(w)))\n")
    assert _float_of_abs(tree) == [1, 4, 7, 8, 11]


def _derives(bases, name, test, seen=()):
    """True when ``test(name)`` holds, or holds for a class that ``name``
    reaches through ``bases`` (a class name -> base names mapping)."""
    if test(name):
        return True
    return (name in bases and name not in seen
            and any(_derives(bases, b, test, seen + (name,))
                    for b in bases[name]))


def _is_builtin_exception(name):
    builtin = getattr(builtins, name, None)
    return isinstance(builtin, type) and issubclass(builtin, BaseException)


#: the bases ``cli.main`` maps to an exit code: 3 and 2
MAPPED_BASES = ("NumericalError", "UsageError")


def _unmapped_errors(trees):
    """(module, line, name) of the exception classes of ``trees`` (a name ->
    tree mapping) that derive, directly or through one another, from
    neither of MAPPED_BASES: one raised through ``main`` would end in a
    traceback, exit 1."""
    defs = {node.name: (mod, node.lineno) for mod, tree in trees.items()
            for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = {node.name: [getattr(b, "id", getattr(b, "attr", None))
                         for b in node.bases]
             for tree in trees.values() for node in tree.body
             if isinstance(node, ast.ClassDef)}
    return sorted(defs[name] + (name,) for name in defs
                  if _derives(bases, name, _is_builtin_exception)
                  and not _derives(bases, name, MAPPED_BASES.__contains__))


def test_every_error_maps_to_an_exit_code():
    # every typed failure of the package surfaces as exit code 2 or 3
    unmapped = _unmapped_errors(_parse_all(SRC))
    assert not unmapped, ", ".join("%s:%d %s" % item for item in unmapped)


def test_unmapped_error_detector():
    trees = {"a.py": ast.parse("from .core import NumericalError\n"
                               "class BadInput(ValueError):\n"
                               "    pass\n"
                               "class Deeper(BadInput):\n"
                               "    pass\n"
                               "class Plain:\n"
                               "    pass\n"
                               "class Mapped(NumericalError, RuntimeError):\n"
                               "    pass\n"
                               "class Through(Mapped):\n"
                               "    pass\n"
                               "class Table(dict):\n"
                               "    pass\n"),
             "core.py": ast.parse("class NumericalError(Exception):\n"
                                  "    pass\n"),
             "cli.py": ast.parse("import core\n"
                                 "class UsageError(ValueError):\n"
                                 "    pass\n"
                                 "class Refused(UsageError):\n"
                                 "    pass\n"
                                 "class Failed(core.NumericalError):\n"
                                 "    pass\n")}
    assert _unmapped_errors(trees) == [("a.py", 2, "BadInput"),
                                       ("a.py", 4, "Deeper")]


def _own_nodes(func):
    """The nodes of ``func``'s body, not descending into the functions,
    lambdas and classes defined in it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _is_plus(value):
    """True for ``+x`` or a tuple with a ``+x`` among its items."""
    items = value.elts if isinstance(value, ast.Tuple) else [value]
    return any(isinstance(v, ast.UnaryOp) and isinstance(v.op, ast.UAdd)
               for v in items)


def _plus_after_raise(tree):
    """Lines of a ``return +x`` (or of a tuple with a ``+x``) outside the
    ``with working(...)`` blocks of a function that has one: the unary plus
    rounds the result to the caller's ambient digits after the raise has
    ended, not to the digits the function was asked for."""
    lines = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        raises = [node for node in _own_nodes(func) if isinstance(node, ast.With)
                  and any(any(_raise_calls(item.context_expr, ("working",)))
                          for item in node.items)]
        inside = {id(leaf) for block in raises for leaf in ast.walk(block)}
        lines.extend(node.lineno for node in _own_nodes(func)
                     if raises and isinstance(node, ast.Return)
                     and node.value is not None and id(node) not in inside
                     and _is_plus(node.value))
    return sorted(lines)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unary_plus_after_the_raise(path):
    # a function that raises with working(dps) returns inside the raise, so
    # its result carries dps + GUARD_DIGITS digits whatever the ambient
    # precision of its caller
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _plus_after_raise(tree)
    assert not found, "%s: unary plus returned after the raise on lines %s" % (
        path.name, found)


def test_plus_after_raise_detector():
    tree = ast.parse("def f(dps):\n"
                     "    with working(dps):\n"
                     "        out = g()\n"
                     "    return +out\n"
                     "def h(dps):\n"
                     "    with working(dps):\n"
                     "        return +g()\n"
                     "def k(x):\n"
                     "    return +x\n"
                     "def t(dps):\n"
                     "    with mpcore.working(dps) as d, open(p) as fh:\n"
                     "        a, b = g(d)\n"
                     "        def inner():\n"
                     "            return +a\n"
                     "    if a:\n"
                     "        return a\n"
                     "    return +a, b\n")
    assert _plus_after_raise(tree) == [4, 17]


def _pyproject_dependencies():
    """Distribution names in the ``dependencies`` list of pyproject.toml,
    read with a pattern: tomllib is not in Python 3.10's standard library."""
    text = (SRC[0].parents[2] / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M).group(1)
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', block))


def _outside_imports(tree, allowed):
    """(line, module) of every import of a top-level module that is neither
    the standard library's, nor in ``allowed``, nor the package's own (a
    relative import or ``mbhalf``); ``importlib.import_module`` and
    ``__import__`` with a constant name count as imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")
              and node.args and isinstance(node.args[0], ast.Constant)):
            names = [node.args[0].value]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name.split(".")[0] not in
                     sys.stdlib_module_names | allowed | {"mbhalf"})
    return sorted(found)


def test_library_imports_only_its_dependencies():
    # src/ imports the standard library, mpmath and numpy alone, the
    # dependencies pyproject declares; an optional import such as
    # scipy.linalg would also cost 0.3-0.4 s of start-up in a fresh process
    assert _pyproject_dependencies() == {"mpmath", "numpy"}
    trees = _parse_all(SRC)
    found = [(mod, *item) for mod, tree in trees.items()
             for item in _outside_imports(tree, {"mpmath", "numpy"})]
    assert not found, ", ".join("%s:%d %s" % item for item in found)


def test_outside_import_detector():
    tree = ast.parse("import math, scipy.linalg\n"
                     "from numpy import linalg\n"
                     "from .mpcore import working\n"
                     "from mbhalf.mpcore import quad_ts\n"
                     "from scipy.linalg import lu_factor\n"
                     "import importlib\n"
                     "sp = importlib.import_module('scipy.special')\n"
                     "gm = __import__('gmpy2')\n"
                     "ok = importlib.import_module('mpmath')\n"
                     "from mpmath.libmp import to_fixed\n")
    assert _outside_imports(tree, {"mpmath", "numpy"}) == [
        (1, "scipy.linalg"), (5, "scipy.linalg"), (7, "scipy.special"),
        (8, "gmpy2")]


#: the functions of cli.py that serve the options every subcommand shares
_SHARED_READERS = ("_resolve_precision", "_emit", "main")


def _unread_options(tree):
    """(line, subcommand, dest) of every option that ``build_parser`` adds
    and that the code serving it never reads as ``args.<dest>``: a
    subcommand's own option in its handler (found through ``_HANDLERS``),
    an option of a shared parent parser (subcommand None) in one of
    ``_SHARED_READERS``."""
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    handlers = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_HANDLERS"
                        for t in node.targets)):
            handlers = {k.value: v.id for k, v in zip(node.value.keys,
                                                      node.value.values)}

    def reads(names):
        return {node.attr for name in names if name in funcs
                for node in ast.walk(funcs[name])
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"}

    commands = {}  # parser variable -> subcommand, for sub.add_parser(...)
    options = []
    for node in ast.walk(funcs["build_parser"]):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "attr", None) == "add_parser"):
            commands[node.targets[0].id] = node.value.args[0].value
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "add_argument"):
            dest = next((kw.value.value for kw in node.keywords
                         if kw.arg == "dest"), None)
            if dest is None:
                flag = next((a.value for a in node.args
                             if a.value.startswith("--")), node.args[0].value)
                dest = flag.lstrip("-").replace("-", "_")
            options.append((node.lineno, node.func.value.id, dest))
    found = []
    for line, parser, dest in options:
        command = commands.get(parser)
        readers = ([handlers.get(command)] if command is not None
                   else _SHARED_READERS)
        if dest not in reads(readers):
            found.append((line, command, dest))
    return sorted(found, key=lambda item: item[0])


def test_every_cli_option_is_read():
    # an option its handler never reads is accepted and ignored, so a
    # caller who sets it is told nothing
    path = SRC[0].parent / "cli.py"
    found = _unread_options(ast.parse(path.read_text(), filename=str(path)))
    assert not found, ", ".join("line %d: %s --%s" % item for item in found)


def test_unread_option_detector():
    tree = ast.parse("def build_parser():\n"
                     "    common = argparse.ArgumentParser(add_help=False)\n"
                     "    common.add_argument('--precision', type=int)\n"
                     "    common.add_argument('--verbose')\n"
                     "    sub = p.add_subparsers(dest='command')\n"
                     "    k = sub.add_parser('kernel', parents=[common])\n"
                     "    k.add_argument('--x-grid')\n"
                     "    k.add_argument('-t', '--tag')\n"
                     "    k.add_argument('--y', dest='why')\n"
                     "    r = sub.add_parser('rhcheck', parents=[common])\n"
                     "    r.add_argument('--tol')\n"
                     "    return p\n"
                     "def cmd_kernel(args, precision):\n"
                     "    return args.x_grid, args.why, getattr(args, 'tag')\n"
                     "def cmd_rhcheck(args, precision):\n"
                     "    return args.x_grid\n"
                     "def main(argv=None):\n"
                     "    tol = args.tol\n"
                     "    return args.precision\n"
                     "_HANDLERS = {'kernel': cmd_kernel,\n"
                     "             'rhcheck': cmd_rhcheck}\n")
    assert _unread_options(tree) == [
        (4, None, "verbose"), (8, "kernel", "tag"), (11, "rhcheck", "tol")]


def _numpy_loaders(tree):
    """Lines that load numpy when the module is imported: an import of
    numpy anywhere in it, or a top-level import of the equilibrium module,
    which imports numpy (a function that imports it loads numpy only when
    it runs)."""
    found = set(line for line, _ in _outside_imports(tree, {"mpmath"}))
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [
                (node.module or "") + "." + alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "equilibrium" for name in names):
            found.add(node.lineno)
    return sorted(found)


def test_only_equilibrium_loads_numpy():
    # numpy is most of a fresh `import mbhalf.cli`, and only the minimizer
    # and its callers need it: the command line imports equilibrium inside
    # `density` and `eqsolve`, and no other module imports numpy or, at
    # its top level, equilibrium
    trees = _parse_all(SRC)
    found = [(mod, line) for mod, tree in trees.items()
             if mod != "equilibrium.py" for line in _numpy_loaders(tree)]
    assert not found, ", ".join("%s:%d" % item for item in found)


def test_numpy_loader_detector():
    tree = ast.parse("import math\n"
                     "import numpy as np\n"
                     "from numpy.linalg import solve\n"
                     "from . import equilibrium as eq\n"
                     "from .equilibrium import scaling_constants\n"
                     "from .equilibrium_errors import DomainError\n"
                     "import mbhalf.equilibrium\n"
                     "from mpmath import mp\n"
                     "def cmd():\n"
                     "    from . import equilibrium\n"
                     "    import numpy\n")
    assert _numpy_loaders(tree) == [2, 3, 4, 5, 7, 11]
