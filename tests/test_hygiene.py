"""Source hygiene checks that need no linter: every module of the package
uses each name it imports and imports only at module level, only
Ifs.frontier takes a word limit of its own, every defaulted parameter is
set by some call in the package and left unset by some call, 2x2
products go through the one kernel ifs.mul2,
projective angles come from math.atan2 and not np.arctan2, one function
branches on s at 1 and 2, one function fits a level to a word count in
a while loop, one function takes a*d - b*c from a matrix's entries,
the estimators take no norms and no reductions along axis 0,
interval_content has no for loop and no comprehension, only the
estimators copy an array with np.ascontiguousarray, Ifs.frontier and
the callers of the product levels have no @, no module makes an array of
Python objects, only projective._atan2 fills an array from a libm
function called once per element, classify_irreducibility tests its
lines in one table, only Ifs.__init__ and the memo ifs.derived touch
Ifs._cache, cli.main alone reads an input and writes a report,
config.seeded_rng alone names the bit generator, no module uses
dataclasses and every record refuses a rebound field, importing the
package loads numpy but neither scipy nor dataclasses, every entry
point that the benchmark's tracer wraps still exists, and a traced
`dims` run counts the points of the covering counts."""

import ast
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import affinedim
from affinedim.estimators import Frozen
from affinedim.ifs import Cylinders

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "affinedim")
MODULES = sorted(f for f in os.listdir(SRC_DIR)
                 if f.endswith(".py") and f != "__init__.py")


def unused_imports(source):
    """Names bound by import statements and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in imported if name not in used)


def test_checker_finds_an_unused_import():
    src = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(src) == ["pi"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC_DIR, module)) as fh:
        assert unused_imports(fh.read()) == []


def function_imports(source):
    """Line numbers of the import statements inside function bodies."""
    return sorted({inner.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_checker_finds_imports_inside_functions():
    src = ("import os\ndef f():\n    from math import pi\n    return pi\n"
           "class C:\n    def g(self):\n        def h():\n"
           "            import sys\n        return h\n")
    assert function_imports(src) == [3, 8]


@pytest.mark.parametrize("module", MODULES)
def test_imports_at_module_level(module):
    # an import inside a function hides an import cycle from the reader
    with open(os.path.join(SRC_DIR, module)) as fh:
        assert function_imports(fh.read()) == []


# The word cap is one process-wide setting read by every guard; the one
# explicit limit is the cap of Ifs.frontier, which geometry._proj_stopping
# forwards for posc_check's short walks.  BudgetExceeded records the cap
# it reports and sets none.
BUDGET_PARAMETERS = {"cap", "max_intervals", "max_depth"}
ALLOWED_BUDGET_PARAMETERS = {"ifs.py": ["frontier(cap)"],
                             "geometry.py": ["_proj_stopping(cap)"],
                             "errors.py": ["__init__(cap)"]}


def budget_knobs(source):
    """Every budget parameter a function takes, as "name(parameter)", any
    parameter of word_cap, and every word_cap call given an argument, as
    "word_cap(...) at line n"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.arg in BUDGET_PARAMETERS or node.name == "word_cap":
                    found.append(f"{node.name}({arg.arg})")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "word_cap" and (node.args or node.keywords):
                found.append(f"word_cap(...) at line {node.lineno}")
    return sorted(found)


def test_checker_finds_budget_knobs():
    src = ("def f(x, cap=None):\n    return word_cap(cap)\n"
           "def word_cap(override=None):\n    return override\n"
           "def g(y, *, max_depth=3):\n    return config.word_cap()\n")
    assert budget_knobs(src) == ["f(cap)", "g(max_depth)",
                                 "word_cap(...) at line 2",
                                 "word_cap(override)"]


@pytest.mark.parametrize("module", MODULES)
def test_one_word_cap(module):
    with open(os.path.join(SRC_DIR, module)) as fh:
        assert budget_knobs(fh.read()) \
            == ALLOWED_BUDGET_PARAMETERS.get(module, [])


TEST_DIR = os.path.dirname(__file__)
SRC_CALLERS = [os.path.join(SRC_DIR, f) for f in os.listdir(SRC_DIR)
               if f.endswith(".py")]
TEST_CALLERS = [os.path.join(TEST_DIR, f) for f in os.listdir(TEST_DIR)
                if f.endswith(".py")]


def call_table(callers):
    """For each callee name, the (positions, keywords) that each call in
    the caller sources sets.  A starred argument sets every position and a
    ** argument every keyword, marked by None among the keywords."""
    calls = {}
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (math.inf if starred else len(node.args),
                     {k.arg for k in node.keywords}))
    return calls


def defaulted_parameters(source):
    """(function name, position, parameter) of the defaulted parameters
    of the functions defined in source; a keyword-only parameter has
    position inf.  Calls match definitions by callee name, so a method's
    first parameter, its receiver, is not counted.  __init__ is left out,
    since its calls name the class."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name == "__init__":
            continue
        args = node.args
        params = args.posonlyargs + args.args
        if id(node) in methods:
            params = params[1:]
        first = len(params) - len(args.defaults)
        for k in range(first, len(params)):
            yield node.name, k, params[k].arg
        for p, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield node.name, math.inf, p.arg


def call_sets(call, position, parameter):
    given, named = call
    return position < given or parameter in named or None in named


def dead_options(source, callers):
    """Defaulted parameters of the functions defined in source, as
    "name(parameter)", that no call in the caller sources sets, by keyword
    or by position."""
    calls = call_table(callers)
    return sorted(f"{name}({p})"
                  for name, k, p in defaulted_parameters(source)
                  if not any(call_sets(c, k, p) for c in calls.get(name, [])))


def unread_defaults(source, callers):
    """Defaulted parameters of the functions defined in source, as
    "name(parameter)", that every call in the caller sources sets, when
    there is one."""
    calls = call_table(callers)
    return sorted(f"{name}({p})"
                  for name, k, p in defaulted_parameters(source)
                  if calls.get(name)
                  and all(call_sets(c, k, p) for c in calls[name]))


def read_all(paths):
    texts = []
    for path in paths:
        with open(path) as fh:
            texts.append(fh.read())
    return texts


def test_checker_finds_dead_options():
    src = ("def f(x, y=1, *, z=2):\n    return x\n"
           "class C:\n    def m(self, a=0, b=1):\n        return a\n"
           "    def __init__(self, k=3):\n        pass\n"
           "def g(p, q=0):\n    return p\n"
           "def h(r=0):\n    return r\n")
    calls = ("f(1, 2)\nC().m(b=4)\nk(z=5)\ng(*[1, 2])\n"
             "h(**{'r': 1})\n")
    assert dead_options(src, [src, calls]) == ["f(z)", "m(a)"]


def test_checker_finds_unread_defaults():
    src = ("def f(x, y=1, *, z=2):\n    return x\n"
           "class C:\n    def m(self, a=0, b=1):\n        return a\n"
           "    def __init__(self, k=3):\n        pass\n"
           "def g(p, q=0):\n    return p\n"
           "def h(r=0):\n    return r\n"
           "def t(u=0):\n    return u\n")
    calls = ("f(1, 2, z=3)\nf(0, y=1)\nC().m(1)\nC(k=1).m(2, b=3)\n"
             "g(*[1, 2])\nh(**{'r': 1})\n")
    assert unread_defaults(src, [src, calls]) \
        == ["f(y)", "g(q)", "h(r)", "m(a)"]


# brentq keeps the signature of scipy's brentq.c, whose argument checks
# it mirrors; the open test that the grid-carpet tangent scan stays below
# Mackay's formula at several resolutions will set resolution; main takes
# the argument list that tests drive the CLI with
ALLOWED_DEAD_OPTIONS = ("brentq(", "tangent_dimension_scan(resolution)",
                        "main(argv)")


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_options(module):
    # a default no caller changes is a constant in disguise, and a test
    # is not a caller
    with open(os.path.join(SRC_DIR, module)) as fh:
        found = dead_options(fh.read(), read_all(SRC_CALLERS))
    assert [f for f in found if not f.startswith(ALLOWED_DEAD_OPTIONS)] == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_defaults(module):
    # a default that every call overrides is never read
    with open(os.path.join(SRC_DIR, module)) as fh:
        found = unread_defaults(fh.read(),
                                read_all(SRC_CALLERS + TEST_CALLERS))
    assert found == []


def function_node(source, *path):
    """The one function or class at the given path of names from module
    level, such as ("Ifs", "frontier") for a method; the module itself
    for an empty path."""
    node = ast.parse(source)
    for name in path:
        [node] = [child for child in node.body
                  if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                  and child.name == name]
    return node


def calls_of(source, name, *path):
    """Line numbers of every call of a function with the given name, in
    the body of the function at path if one is given."""
    body = function_node(source, *path)
    return sorted(node.lineno for node in ast.walk(body)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr",
                              getattr(node.func, "id", None)) == name)


def test_checker_finds_einsum_calls():
    src = ("import numpy as np\nfrom numpy import einsum\n"
           "x = np.einsum('ij->i', y)\nz = einsum('i->', x)\n"
           "# np.einsum in a comment\n")
    assert calls_of(src, "einsum") == [3, 4]


@pytest.mark.parametrize("module", MODULES)
def test_no_einsum(module):
    # 2x2 products go through ifs.mul2, which equals einsum bit for bit
    with open(os.path.join(SRC_DIR, module)) as fh:
        assert calls_of(fh.read(), "einsum") == []


def test_checker_finds_arctan2_calls():
    src = ("import math\nimport numpy as np\n"
           "a = math.atan2(1.0, 2.0)\nb = np.arctan2(y, x)\n"
           "# np.arctan2 in a comment\n")
    assert calls_of(src, "arctan2") == [4]


def test_checker_finds_calls_in_functions():
    src = ("def f(a):\n    return g(a) + g(h(a))\n"
           "def k(a):\n    return g(a)\n")
    assert calls_of(src, "g", "f") == [2, 2]
    assert calls_of(src, "h", "k") == []
    assert calls_of(src, "g") == [2, 2, 4]
    with pytest.raises(ValueError):
        calls_of(src, "g", "m")


def test_irreducibility_tests_one_table():
    # the candidate lines come from one stacked eig and their images from
    # one act_angle table, each called at one place; the pairs are rows of
    # that table, not itertools.combinations of the lines
    with open(os.path.join(SRC_DIR, "projective.py")) as fh:
        source = fh.read()
    fn = "classify_irreducibility"
    assert len(calls_of(source, "act_angle", fn)) == 1
    assert len(calls_of(source, "_eigen_lines", fn)) == 1
    assert calls_of(source, "combinations", fn) == []


def test_no_arctan2_in_projective():
    # the multicone and the limit directions take their angles from
    # math.atan2; np.arctan2 differs from it in the last bit on some
    # inputs, and those bits enter the certificates and the reports
    with open(os.path.join(SRC_DIR, "projective.py")) as fh:
        assert calls_of(fh.read(), "arctan2") == []


def s_branch_functions(source):
    """Dotted names of the functions whose own body (nested functions
    aside) compares the name s with both 1.0 and 2.0."""
    found = []

    def visit(node, scope, consts):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = set()
                visit(child, scope + [child.name], inner)
                if {1.0, 2.0} <= inner:
                    found.append(".".join(scope + [child.name]))
                continue
            if isinstance(child, ast.Compare):
                operands = [child.left] + child.comparators
                if any(isinstance(o, ast.Name) and o.id == "s"
                       for o in operands):
                    consts.update(o.value for o in operands
                                  if isinstance(o, ast.Constant))
            visit(child, scope, consts)
    visit(ast.parse(source), [], set())
    return sorted(found)


def test_checker_finds_s_branches():
    src = ("def a(s):\n    if s <= 1.0:\n        return 0\n"
           "    return 1 if s <= 2.0 else 2\n"
           "def b(s, t):\n    return s < 1.0 or t > 2.0\n"
           "class C:\n    def c(self, x):\n"
           "        def inner(s):\n            return s <= 1.0 or 2.0 < s\n"
           "        return x > 1.0 and inner(x) > 2.0\n")
    assert s_branch_functions(src) == ["C.c.inner", "a"]


def test_one_singular_value_function():
    # phi^s is written once, in logs, as ifs.log_svf; a second copy of
    # its three branches would have to stay in step with it
    found = []
    for module in MODULES:
        with open(os.path.join(SRC_DIR, module)) as fh:
            found += [f"{module}:{name}"
                      for name in s_branch_functions(fh.read())]
    assert found == ["ifs.py:log_svf"]


def power_loops(source):
    """Dotted names of the functions around every while loop whose test
    takes a power, by ** or pow(), one entry per loop; a loop outside
    every function is named "<module>"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.While) and any(
                    isinstance(t, ast.BinOp) and isinstance(t.op, ast.Pow)
                    or isinstance(t, ast.Call)
                    and getattr(t.func, "id", None) == "pow"
                    for t in ast.walk(child.test)):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)
    visit(ast.parse(source), [])
    return sorted(found)


def test_checker_finds_power_loops():
    src = ("def a(n, m):\n    while n ** m > 9 and m > 1:\n        m -= 1\n"
           "    while m < 3:\n        m += 1\n    return m\n"
           "class C:\n    def b(self, k):\n"
           "        while pow(2, k) > 5:\n            k -= 1\n"
           "        def inner(j):\n            while 3 ** j < 9:\n"
           "                j += 1\n            return j\n"
           "        return inner(k)\n"
           "while 2 ** 3 < 1:\n    pass\n")
    assert power_loops(src) == ["<module>", "C.b", "C.b.inner", "a"]


def test_one_level_fit():
    # the deepest level that fits a word count is found in one place,
    # ifs.fit_level; a second loop would have to stay in step with it
    found = []
    for module in MODULES:
        with open(os.path.join(SRC_DIR, module)) as fh:
            found += [f"{module}:{name}" for name in power_loops(fh.read())]
    assert found == ["ifs.py:fit_level"]


def entry_determinants(source):
    """Dotted names of the functions around every a*d - b*c written from
    the entries of a 2x2 matrix: the names a, b, c and d, or subscripts
    whose last two indices are the constants (0, 0), (1, 1), (0, 1) and
    (1, 0)."""
    def entry(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Subscript) \
                and isinstance(node.slice, ast.Tuple):
            index = [getattr(i, "value", None) for i in node.slice.elts[-2:]]
            if index in ([0, 0], [0, 1], [1, 0], [1, 1]):
                return "abcd"[2 * index[0] + index[1]]
        return None

    def factors(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return {entry(node.left), entry(node.right)}
        return None

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Sub) \
                    and [factors(child.left), factors(child.right)] \
                    in ([{"a", "d"}, {"b", "c"}], [{"b", "c"}, {"a", "d"}]):
                found.append(".".join(scope))
            visit(child, scope)
    visit(ast.parse(source), [])
    return found


def test_checker_finds_entry_determinants():
    src = ("def f(a, b, c, d):\n    return a * d - b * c\n"
           "class C:\n    def g(self, m):\n"
           "        return m[:, 1, 1] * m[:, 0, 0] - m[:, 0, 1] * m[:, 1, 0]\n"
           "x = -(b * c - d * a)\n"
           "cross = e[0] * o[:, 1] - e[1] * o[:, 0]\n"
           "y = a * b - c * d\nz = m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]\n")
    assert entry_determinants(src) == ["f", "C.g", ""]


def test_one_determinant():
    # a*d - b*c is ifs.det2 alone, so one expression has to be rounded
    # outward for a certified determinant
    found = []
    for module in MODULES:
        with open(os.path.join(SRC_DIR, module)) as fh:
            found += [f"{module}:{name}"
                      for name in entry_determinants(fh.read())]
    assert found == ["ifs.py:det2"]


def test_checker_finds_ascontiguousarray_calls():
    src = ("import numpy as np\nx = np.ascontiguousarray(y.T)\n"
           "z = np.asarray(y)\n# np.ascontiguousarray in a comment\n")
    assert calls_of(src, "ascontiguousarray") == [2]


@pytest.mark.parametrize("module", [m for m in MODULES
                                    if m != "estimators.py"])
def test_layout_stays_in_ifs(module):
    # mul2, pull_back and det2 read a stack in any layout, so no module
    # copies the entry-major products of ifs; the estimators copy a
    # cloud's columns
    with open(os.path.join(SRC_DIR, module)) as fh:
        assert calls_of(fh.read(), "ascontiguousarray") == []


def axis0_calls(source):
    """Line numbers of every call given the keyword argument axis=0."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and any(k.arg == "axis" and isinstance(k.value, ast.Constant)
                    and k.value.value == 0 for k in node.keywords)]


def test_checker_finds_norms_and_axis0_reductions():
    src = ("import numpy as np\nd = np.linalg.norm(p - c, axis=1)\n"
           "lo = p.min(axis=0)\nhi = p[:, 0].max()\n"
           "n = np.sum(p, axis=0, keepdims=True)\n# p.max(axis=0)\n")
    assert calls_of(src, "norm") == [2]
    assert axis0_calls(src) == [3, 5]


def test_estimators_read_columns():
    # reductions along axis 0 of an (m, 2) cloud are strided and slow, and
    # np.linalg.norm over the whole cloud once per scale pair repeats the
    # same distances; the estimators read one column at a time instead
    with open(os.path.join(SRC_DIR, "estimators.py")) as fh:
        source = fh.read()
    assert calls_of(source, "norm") == []
    assert axis0_calls(source) == []


def loops_in(source, function):
    """Line numbers of every for statement and comprehension in the one
    module-level function of the given name."""
    fn = function_node(source, function)
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    return sorted(node.lineno for node in ast.walk(fn)
                  if isinstance(node, loops))


def test_checker_finds_loops():
    src = ("def f(xs):\n    for x in xs:\n        pass\n"
           "    ys = [x for x in xs]\n    return sum(x for x in ys)\n"
           "def g(xs):\n    while xs:\n        xs = {x: 1 for x in xs[1:]}\n"
           "    return xs\n"
           "for y in range(3):\n    pass\n")
    assert loops_in(src, "f") == [2, 4, 5]
    assert loops_in(src, "g") == [8]
    with pytest.raises(ValueError):
        loops_in(src, "h")


def test_interval_content_merges_in_rounds():
    # a round merges every ready gap of the split tree at once, so the
    # loop runs once per level; a Python loop over gaps or intervals would
    # run once per interval
    with open(os.path.join(SRC_DIR, "geometry.py")) as fh:
        assert loops_in(fh.read(), "interval_content") == []


def matmuls_in(source, *path):
    """Line numbers of every @ in the body of the one function or class
    at the given path of names from module level, such as ("Ifs",
    "frontier") for a method."""
    node = function_node(source, *path)
    return sorted(inner.lineno for inner in ast.walk(node)
                  if isinstance(inner, (ast.BinOp, ast.AugAssign))
                  and isinstance(inner.op, ast.MatMult))


def test_checker_finds_matmuls():
    src = ("class C:\n    def f(self, a, b):\n        return a @ b\n"
           "    def g(self, a):\n        a @= a\n        return [x @ x\n"
           "                for x in a]\n"
           "def f(a):\n    return a @ a\n")
    assert matmuls_in(src, "C", "f") == [3]
    assert matmuls_in(src, "C", "g") == [5, 6]
    with pytest.raises(ValueError):
        matmuls_in(src, "C", "h")


def test_checker_finds_matmuls_in_functions():
    src = ("def f(a):\n    b = a @ a\n    return b\n"
           "@derived\ndef g(a):\n    return [x @ x for x in a]\n"
           "def h(a):\n    return mul2(a, a)\n")
    assert matmuls_in(src, "f") == [2]
    assert matmuls_in(src, "g") == [6]
    assert matmuls_in(src, "h") == []
    with pytest.raises(ValueError):
        matmuls_in(src, "k")


@pytest.mark.parametrize("module, function", [
    ("thermo.py", "_cylinder_directions"), ("thermo.py", "transfer_matrix"),
    ("projective.py", "classify_irreducibility")])
def test_products_come_from_ifs(module, function):
    # the inverse products, the pulled-back axes and the pair products
    # come from the kernels of ifs, whose bits do not depend on the layout
    with open(os.path.join(SRC_DIR, module)) as fh:
        assert matmuls_in(fh.read(), function) == []


def test_frontier_has_one_product_rule():
    # the cylinder walk multiplies only through mul2, whose bits do not
    # depend on the layout of the products; a stacked @ rounds
    # differently on its entry-major products
    with open(os.path.join(SRC_DIR, "ifs.py")) as fh:
        assert matmuls_in(fh.read(), "Ifs", "frontier") == []


def object_arrays(source):
    """Line numbers of every astype(object) call and every dtype=object
    argument."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        args = list(node.args) if getattr(node.func, "attr", None) \
            == "astype" else []
        args += [k.value for k in node.keywords if k.arg == "dtype"]
        if any(isinstance(a, ast.Name) and a.id == "object" for a in args):
            found.append(node.lineno)
    return found


def test_checker_finds_object_arrays():
    src = ("y = x.astype(object)\nz = np.array(x, dtype=object)\n"
           "w = x.astype(float)\nv = np.empty(3, dtype=float)\n"
           "u = isinstance(x, object)\n")
    assert object_arrays(src) == [1, 2]


@pytest.mark.parametrize("module", MODULES)
def test_no_object_arrays(module):
    # a float in an object array costs a Python float and a pointer, and
    # a power over it a call per element
    with open(os.path.join(SRC_DIR, module)) as fh:
        assert object_arrays(fh.read()) == []


def libm_loops(source):
    """Names of the module-level functions, or "" for the module body,
    that hold a np.fromiter call over map(math.<function>, ...)."""
    found = []
    for node in ast.parse(source).body:
        name = getattr(node, "name", "") \
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else ""
        for call in ast.walk(node):
            if isinstance(call, ast.Call) \
                    and getattr(call.func, "attr", None) == "fromiter" \
                    and any(isinstance(a, ast.Call)
                            and getattr(a.func, "id", None) == "map"
                            and a.args
                            and isinstance(a.args[0], ast.Attribute)
                            and getattr(a.args[0].value, "id", None) == "math"
                            for a in call.args):
                found.append(name)
    return found


def test_checker_finds_libm_loops():
    src = ("import math\nimport numpy as np\n"
           "def f(x, s):\n    return np.fromiter(map(math.pow, x, s), "
           "float)\n"
           "class C:\n    def g(self, y):\n"
           "        return np.fromiter(map(math.atan, y), float)\n"
           "z = np.fromiter(map(math.exp, [1.0]), float)\n"
           "w = np.fromiter(map(abs, [1.0]), float)\n"
           "ok = all(map(math.isfinite, [1.0]))\n")
    assert libm_loops(src) == ["f", "C", ""]


@pytest.mark.parametrize("module", MODULES)
def test_libm_loops_only_for_atan2(module):
    # a libm call per element costs a Python call per float; numpy's
    # ufuncs run them in C, and np.float_power runs libm pow itself.  No
    # ufunc runs libm atan2 alone, so projective._atan2 keeps its loop
    with open(os.path.join(SRC_DIR, module)) as fh:
        assert libm_loops(fh.read()) \
            == (["_atan2"] if module == "projective.py" else [])


def cache_accesses(source):
    """Line numbers of every read or write of an attribute named _cache."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "_cache"]


def test_checker_finds_cache_accesses():
    src = ("x = ifs._cache['key']\nifs._cache[1] = 2\n_cache = {}\n"
           "y = self._cache.get(3)\n")
    assert cache_accesses(src) == [1, 2, 4]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "ifs.py"])
def test_cache_kept_by_ifs_alone(module):
    # a value a family determines is kept by the one memo ifs.derived
    with open(os.path.join(SRC_DIR, module)) as fh:
        assert cache_accesses(fh.read()) == []


def owners(source, hit):
    """Dotted name of the function or class around every node of source
    for which hit holds, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if hit(child):
                found.append(".".join(scope))
            visit(child, scope)
    visit(ast.parse(source), [])
    return found


def cache_owners(source):
    """Dotted name of the function or class around every read or write of
    an attribute named _cache, "" at module level."""
    return owners(source, lambda node: isinstance(node, ast.Attribute)
                  and node.attr == "_cache")


def call_owners(source, name):
    """Dotted name of the function or class around every call of a
    function with the given name, "" at module level."""
    return owners(source, lambda node: isinstance(node, ast.Call)
                  and getattr(node.func, "attr",
                              getattr(node.func, "id", None)) == name)


def test_checker_finds_cache_owners():
    src = ("x = ifs._cache\n"
           "def derived(fn):\n    def memo(ifs):\n"
           "        return ifs._cache[fn]\n    return memo\n"
           "class Ifs:\n    def __init__(self):\n        self._cache = {}\n"
           "    def level(self, n):\n        return self._cache.get(n)\n")
    assert cache_owners(src) == ["", "derived.memo", "Ifs.__init__",
                                 "Ifs.level"]


def test_memo_is_the_only_cache():
    # Ifs.__init__ makes the memo and derived alone reads and fills it
    with open(os.path.join(SRC_DIR, "ifs.py")) as fh:
        owners = cache_owners(fh.read())
    assert set(owners) == {"derived.memo", "Ifs.__init__"}


def test_checker_finds_call_owners():
    src = ("x = load(1)\n"
           "def main(argv):\n    return write(load(argv))\n"
           "class Sink:\n    def write(self, text):\n"
           "        return self.out.write(text)\n")
    assert call_owners(src, "load") == ["", "main"]
    assert call_owners(src, "write") == ["main", "Sink.write"]


def src_call_owners(name):
    """"module:owner" of every call of name in the package's sources."""
    found = []
    for path in sorted(SRC_CALLERS):
        with open(path) as fh:
            found += [f"{os.path.basename(path)}:{owner}"
                      for owner in call_owners(fh.read(), name)]
    return found


@pytest.mark.parametrize("name, callers", [
    ("load_input", ["cli.py:main"]),
    ("write_report", ["cli.py:main"]),
    ("_write_text", ["cli.py:main", "cli.py:write_report"]),
])
def test_main_reads_and_writes(name, callers):
    # the runners take a loaded input and return their report, so a block
    # that every report carries is added in main alone
    assert sorted(src_call_owners(name)) == callers


def test_checker_finds_philox_calls():
    src = ("import numpy as np\ndef rng(seed):\n"
           "    return np.random.Generator(np.random.Philox(key=seed))\n"
           "from numpy.random import Philox\nb = Philox(2)\n"
           "# np.random.Philox in a comment\n")
    assert call_owners(src, "Philox") == ["rng", ""]


def test_one_bit_generator():
    # every seeded draw comes from config.seeded_rng, so the choice of bit
    # generator, on which every seeded report depends, is made once
    assert src_call_owners("Philox") == ["config.py:seeded_rng"]


def dataclass_uses(source):
    """Line numbers of every import of dataclasses and every use of a name
    or attribute `dataclass`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name == "dataclasses" for a in node.names):
                found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "dataclasses":
                found.add(node.lineno)
        elif getattr(node, "id", getattr(node, "attr", None)) == "dataclass":
            found.add(node.lineno)
    return sorted(found)


def test_checker_finds_dataclasses():
    src = ("from dataclasses import field\nimport dataclasses as dc\n"
           "@dataclass\nclass A:\n    x: int\n"
           "@dc.dataclass(frozen=True)\nclass B:\n    y: int = field()\n"
           "class C(NamedTuple):\n    z: int\n")
    assert dataclass_uses(src) == [1, 2, 3, 6]


@pytest.mark.parametrize("module", MODULES)
def test_no_dataclasses(module):
    # a dataclass execs its generated methods at import, about 0.8 ms a
    # class in every CLI process; records are NamedTuples or Frozen
    with open(os.path.join(SRC_DIR, module)) as fh:
        assert dataclass_uses(fh.read()) == []


# one instance of every record class of the package
RECORDS = [
    affinedim.CoverReport((1.0,), (1,), 0.0, 0.0),
    affinedim.SscReport("Unknown", 0.0, 1.0, 6),
    affinedim.PoscReport(1.0, {2: 1.0}, 0.0, True),
    affinedim.ContentEstimate(0.5, affinedim.ProjPoint(0.3), 1.0, 6),
    affinedim.IrreducibilityClass("Reducible"),
    affinedim.PressureSample(1.0, 2, 0.0),
    affinedim.EqState(1.0, 1, np.ones(2), np.full(2, 0.5), 1.0, 3),
    affinedim.thermo.TransferOperator(np.ones((2, 2))),
    affinedim.GibbsWeights(1, np.full(2, 0.5), 1.0, 1.0),
    affinedim.PointCloud(np.zeros((3, 2)), 0.1),
    affinedim.ProjPoint(0.3),
    affinedim.CarpetSpec(2, 3, ((0, 0),)),
    Cylinders(*[np.zeros(1)] * 5),
    affinedim.Multicone(np.zeros(1), np.ones(1)),
    affinedim.DirectionsApprox(1, affinedim.Multicone(np.zeros(1),
                                                       np.ones(1))),
]


def record_classes():
    """Every NamedTuple and Frozen class defined in a module of the
    package."""
    found = set()
    for module in MODULES:
        mod = importlib.import_module(f"affinedim.{module[:-len('.py')]}")
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__ \
                    and (issubclass(value, Frozen) and value is not Frozen
                         or issubclass(value, tuple)
                         and hasattr(value, "_fields")):
                found.add(value)
    return found


def test_every_record_class_is_checked():
    assert record_classes() == {type(r) for r in RECORDS}


@pytest.mark.parametrize("record", RECORDS,
                         ids=[type(r).__name__ for r in RECORDS])
def test_records_refuse_rebinding(record):
    # a rebound field would change a value the memo keeps
    fields = getattr(record, "_fields", None) or type(record).__slots__
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def fresh_modules(*prefixes):
    """The modules under the given prefixes that `import affinedim,
    affinedim.cli` loads in a fresh interpreter; the test session itself
    imports scipy and dataclasses."""
    code = ("import sys, affinedim, affinedim.cli; "
            f"print(sorted(m for m in sys.modules if m in {prefixes!r} "
            f"or m.startswith(tuple(p + '.' for p in {prefixes!r}))))")
    src = os.path.abspath(os.path.join(SRC_DIR, os.pardir))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    return out.stdout.strip()


def test_import_loads_no_scipy():
    assert fresh_modules("scipy") == "[]"


def test_import_loads_no_dataclasses():
    assert fresh_modules("dataclasses") == "[]"


def benchmark_tracer():
    """perfbench/tracer.py as a module, loaded from its file without
    adding perfbench to sys.path, writing its bytecode or installing its
    wrappers."""
    path = os.path.join(SRC_DIR, os.pardir, os.pardir, "perfbench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = writes
    return tracer


def test_tracer_targets_resolve():
    # a renamed entry point would otherwise only fail a traced benchmark
    # pass
    for name, module, attr in benchmark_tracer().TARGETS:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), (name, module, attr)


def test_traced_dims_counts_points(tmp_path):
    # the tracer binds `points` by name in grid_count and _covering_count
    # (tracer._arg), so a renamed parameter fails a traced pass and no
    # untraced one
    tracer = os.path.join(SRC_DIR, os.pardir, os.pardir, "perfbench",
                          "tracer.py")
    src = os.path.abspath(os.path.join(SRC_DIR, os.pardir))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    spans = tmp_path / "spans.json"
    run = subprocess.run(
        [sys.executable, tracer, str(spans), "--", "dims", "--input",
         "positive_pair.json", "--seed", "1", "--out",
         str(tmp_path / "dims.json")],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1",
                 PYTHONDONTWRITEBYTECODE="1"))
    assert run.returncode == 0, run.stderr
    with open(spans) as fh:
        traced = json.load(fh)["spans"]
    for name in ("estimators.covering", "estimators.grid_count"):
        points = [n for span, _, _, _, n in traced if span == name]
        assert points and min(points) >= 1, name
