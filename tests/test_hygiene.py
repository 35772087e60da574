"""Source hygiene checks that need no linter.  Most are rows of RULES, each
checked on the syntax trees of the package; the rest check imports,
defaults, records, fresh imports and the benchmark tracer's hooks."""

import ast
import collections
import functools
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from fnmatch import fnmatchcase

import numpy as np
import pytest

import affinedim
from affinedim.estimators import Frozen
from affinedim.ifs import Cylinders

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "affinedim")
SOURCES = sorted(f for f in os.listdir(SRC_DIR) if f.endswith(".py"))
MODULES = [f for f in SOURCES if f != "__init__.py"]
TEST_DIR = os.path.dirname(__file__)
TEST_PATHS = tuple(os.path.join(TEST_DIR, f)
                   for f in sorted(os.listdir(TEST_DIR)) if f.endswith(".py"))
TRACER = os.path.join(SRC_DIR, os.pardir, os.pardir, "perfbench",
                      "tracer.py")


@functools.cache
def parsed(path):
    with open(path) as fh:
        return ast.parse(fh.read())


@functools.cache
def owned(node):
    """(owner, node) for every node below node: the owner is the dotted
    name of the innermost definition that holds the node, "" outside every
    definition.  A definition holds itself, its decorators, its parameters
    and its defaults."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + [child.name] if isinstance(child, DEFINITIONS) \
                else scope
            found.append((".".join(inner), child))
            visit(child, inner)
    visit(node, [])
    return found


@functools.cache
def owners(node, hit):
    """The owner of every node below node that hit finds."""
    return [o for o, n in owned(node)
            if (isinstance(n, hit) if isinstance(hit, tuple) else hit(n))]


# Hits: a tuple of node types, or a predicate on a syntax node; call,
# attribute and parameter make one predicate per name.
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
IMPORTS = (ast.Import, ast.ImportFrom)
LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


@functools.cache
def call(name):
    return lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)) == name


@functools.cache
def attribute(name):
    return lambda node: isinstance(node, ast.Attribute) and node.attr == name


@functools.cache
def parameter(name):
    return lambda node: isinstance(node, ast.arg) and node.arg == name


def budget_knob(node):
    """A max_intervals or max_depth parameter, or a word_cap call given an
    argument."""
    return isinstance(node, ast.arg) \
        and node.arg in ("max_intervals", "max_depth") \
        or call("word_cap")(node) and bool(node.args or node.keywords)


def matmul(node):
    return isinstance(node, (ast.BinOp, ast.AugAssign)) \
        and isinstance(node.op, ast.MatMult)


def axis0(node):
    return isinstance(node, ast.Call) and any(
        k.arg == "axis" and isinstance(k.value, ast.Constant)
        and k.value.value == 0 for k in node.keywords)


def object_array(node):
    """An astype(object) call or a call given dtype=object."""
    if not isinstance(node, ast.Call):
        return False
    args = [k.value for k in node.keywords if k.arg == "dtype"]
    args += node.args if getattr(node.func, "attr", None) == "astype" else []
    return any(isinstance(a, ast.Name) and a.id == "object" for a in args)


def libm_loop(node):
    """A fromiter call over map(math.<function>, ...)."""
    return call("fromiter")(node) and any(
        call("map")(a) and a.args and isinstance(a.args[0], ast.Attribute)
        and getattr(a.args[0].value, "id", None) == "math" for a in node.args)


def dataclass_use(node):
    """An import of dataclasses, or the name or attribute dataclass."""
    if isinstance(node, ast.Import):
        return any(a.name == "dataclasses" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "dataclasses"
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def power_loop(node):
    """A while loop whose test takes a power, by ** or pow()."""
    return isinstance(node, ast.While) and any(
        isinstance(t, ast.BinOp) and isinstance(t.op, ast.Pow)
        or isinstance(t, ast.Call) and getattr(t.func, "id", None) == "pow"
        for t in ast.walk(node.test))


def determinant(node):
    """a*d - b*c from the entries of a 2x2 matrix: the names a, b, c and
    d, or subscripts whose last two indices are (0, 0), (0, 1), (1, 0)
    and (1, 1)."""
    def entry(side):
        index = getattr(getattr(side, "slice", None), "elts", [])[-2:]
        return getattr(side, "id", None) or {
            (0, 0): "a", (0, 1): "b", (1, 0): "c", (1, 1): "d"}.get(
                tuple(getattr(i, "value", None) for i in index))

    def factors(side):
        return isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult) \
            and {entry(side.left), entry(side.right)}
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) \
        and [factors(node.left), factors(node.right)] \
        in ([{"a", "d"}, {"b", "c"}], [{"b", "c"}, {"a", "d"}])


def s_branch(node):
    """A definition whose own body, nested definitions aside, compares s
    with both 1.0 and 2.0."""
    if not isinstance(node, DEFINITIONS):
        return False
    compared = set()
    for owner, c in owned(node):
        operands = [c.left, *c.comparators] \
            if owner == "" and isinstance(c, ast.Compare) else []
        if any(isinstance(o, ast.Name) and o.id == "s" for o in operands):
            compared |= {o.value for o in operands
                         if isinstance(o, ast.Constant)}
    return {1.0, 2.0} <= compared


# A rule runs as the test named test, with one case per module it reads
# when test holds "{module}".  where and allowed are globs over
# "module:owner", space-separated; a glob selects the names it matches and
# the definitions nested in them, and each glob of where must name a
# definition.  Of the hits that where selects, an exact rule finds one for
# each entry of allowed, and any other only those that allowed selects.
Rule = collections.namedtuple("Rule", "test hit where allowed exact",
                              defaults=[False])
CLASSIFY = "projective.py:classify_irreducibility"
RULES = [
    # an import inside a function hides an import cycle from the reader
    Rule("imports_at_module_level[{module}]", IMPORTS, "*", "*:"),
    # one word cap; Ifs.frontier alone takes a limit, for posc_check's walks
    Rule("one_word_cap[{module}]", parameter("cap"), "*",
         "errors.py:BudgetExceeded.__init__ geometry.py:_proj_stopping "
         "ifs.py:Ifs.frontier", True),
    Rule("one_word_cap[{module}]", budget_knob, "*", ""),
    Rule("one_word_cap[{module}]", (ast.arg,), "*:*word_cap", ""),
    # 2x2 products go through ifs.mul2, which equals einsum bit for bit
    Rule("no_einsum[{module}]", call("einsum"), "*", ""),
    # np.power's SIMD kernel differs from libm pow in the last bit
    Rule("no_power[{module}]", call("power"), "*", ""),
    # np.arctan2 differs from math.atan2 in the last bit of some angles
    Rule("no_arctan2_in_projective", call("arctan2"), "projective.py:*", ""),
    # one eig gives the lines, one act_angle table their images and pairs
    Rule("irreducibility_tests_one_table", call("act_angle"), CLASSIFY,
         CLASSIFY, True),
    Rule("irreducibility_tests_one_table", call("_eigen_lines"), CLASSIFY,
         CLASSIFY, True),
    Rule("irreducibility_tests_one_table", call("combinations"), CLASSIFY,
         ""),
    # a strided axis-0 reduction or a norm per scale pair costs; read columns
    Rule("estimators_read_columns", call("norm"), "estimators.py:*", ""),
    Rule("estimators_read_columns", axis0, "estimators.py:*", ""),
    # the kernels of ifs read any layout; the estimators copy columns
    Rule("layout_stays_in_ifs[{module}]", call("ascontiguousarray"), "*",
         "estimators.py:*"),
    # a round merges every ready gap, where a loop would run per interval
    Rule("interval_content_merges_in_rounds", LOOPS,
         "geometry.py:interval_content", ""),
    # the kernels of ifs round the same in any layout; a stacked @ does not
    Rule("frontier_has_one_product_rule", matmul, "ifs.py:Ifs.frontier", ""),
    Rule("products_come_from_ifs[thermo.py-_cylinder_directions]", matmul,
         "thermo.py:_cylinder_directions", ""),
    Rule("products_come_from_ifs[thermo.py-transfer_matrix]", matmul,
         "thermo.py:transfer_matrix", ""),
    Rule("products_come_from_ifs[projective.py-classify_irreducibility]",
         matmul, CLASSIFY, ""),
    # an object array costs a Python float per element and a call per power
    Rule("no_object_arrays[{module}]", object_array, "*", ""),
    # a Python call per float is slow, but no ufunc runs libm atan2 alone
    Rule("libm_loops_only_for_atan2[{module}]", libm_loop, "*",
         "projective.py:_atan2", True),
    # Ifs.__init__ makes the one memo, and ifs.derived reads and fills it
    Rule("cache_kept_by_ifs_alone[{module}]", attribute("_cache"), "*",
         "ifs.py:*"),
    Rule("memo_is_the_only_cache", attribute("_cache"), "ifs.py:*",
         "ifs.py:Ifs.__init__" + " ifs.py:derived.memo" * 3, True),
    # a dataclass costs about 0.8 ms at import; records are Frozen or tuples
    Rule("no_dataclasses[{module}]", dataclass_use, "*", ""),
    # runners return reports, so a block that every report carries is added
    # in main alone
    Rule("main_reads_and_writes[load_input-callers0]", call("load_input"),
         "*", "cli.py:main", True),
    Rule("main_reads_and_writes[write_report-callers1]",
         call("write_report"), "*", "cli.py:main", True),
    Rule("main_reads_and_writes[_write_text-callers2]", call("_write_text"),
         "*", "cli.py:main cli.py:write_report", True),
    # a benchmark child's report must not land on stdout as well
    Rule("quiet_library[{module}]", call("print"), "*", "cli.py:*"),
    Rule("quiet_library[{module}]", attribute("stdout"), "*",
         "cli.py:_write_text"),
    # every seeded report depends on the bit generator, chosen once
    Rule("one_bit_generator", call("Philox"), "*", "config.py:seeded_rng",
         True),
    # phi^s is ifs.log_svf alone; a copy of its branches would drift
    Rule("one_singular_value_function", s_branch, "*", "ifs.py:log_svf",
         True),
    # the deepest level that fits a word count is found in one place
    Rule("one_level_fit", power_loop, "*", "ifs.py:fit_level", True),
    # a*d - b*c is ifs.det2 alone, the one determinant to round outward
    Rule("one_determinant", determinant, "*", "ifs.py:det2", True),
]
TREES = {m: parsed(os.path.join(SRC_DIR, m)) for m in SOURCES}


def selects(globs, name):
    return any(fnmatchcase(name, g) or fnmatchcase(name, g + ".*")
               for g in globs.split())


def reads(rule, modules):
    return [m for m in modules if any(fnmatchcase(m, g.partition(":")[0])
                                      for g in rule.where.split())]


def check_rule(rule, modules, trees=TREES):
    """Check rule on the given modules of trees, a syntax tree by name."""
    defined = [f"{m}:{o}" for m in reads(rule, trees)
               for o in ("",) + tuple(owners(trees[m], DEFINITIONS))]
    assert [g for g in rule.where.split()
            if not any(selects(g, d) for d in defined)] == []
    found = sorted(name for m in modules
                   for name in (f"{m}:{o}" for o in owners(trees[m], rule.hit))
                   if selects(rule.where, name))
    if rule.exact:
        assert found == sorted(a for a in rule.allowed.split()
                               if a.partition(":")[0] in modules)
    else:
        assert [f for f in found if not selects(rule.allowed, f)] == []


def bind(check, cases):
    """Add to this module a test per name among cases, pairs of an id
    "name" or "name[param]" and arguments of check.  A name with params is
    parametrised over them, so that a failure names both, and a case calls
    check on each argument tuple given under its id."""
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    for case, args in cases:
        name, _, param = case.partition("[")
        runs[name][param.rstrip("]")].append(args)
    for name, by_param in runs.items():
        globals()["test_" + name] = case_test(check, by_param)


def case_test(check, by_param):
    def test(case):
        for args in by_param[case]:
            check(*args)
    if list(by_param) == [""]:
        return lambda: test("")
    return pytest.mark.parametrize("case", list(by_param))(test)


bind(check_rule, [(rule.test.format(module=m), (rule, [m]))
                  for rule in RULES if "{module}" in rule.test
                  for m in reads(rule, SOURCES)]
     + [(rule.test, (rule, reads(rule, SOURCES)))
        for rule in RULES if "{module}" not in rule.test])

# Short sources for the self-tests: a body may follow its colon, and one
# space indents a block
NUMPY = ("import math\nimport numpy as np\nfrom numpy import einsum\n"
         "x = np.einsum('ij->i', y); z = einsum('i->', x)\n"
         "a = math.atan2(1.0, 2.0); b = np.arctan2(y, x)\n"
         "c = np.ascontiguousarray(y.T); d = np.asarray(y)\n"
         "e = np.power(y, s); f = np.float_power(y, s); g = y ** s\n"
         "def rng(seed): return np.random.Generator(np.random.Philox(seed))\n"
         "h = Philox(2)\n"
         "# np.einsum, np.arctan2, np.ascontiguousarray, np.power, Philox\n")
CALLS = "def f(a): return g(a) + g(h(a))\ndef k(a): return g(a)\n"
WRITES = ("x = load(1)\ndef main(argv):\n print(argv, file=sys.stderr)\n"
          " return write(load(argv))\nclass Sink:\n def write(self, text):\n"
          "  self.print_usage(); return sys.stdout.write(text) or run.stderr\n"
          "print('x')\n")
# (case id, hit, source, the owners of its hits)
CHECKS = [
    ("checker_finds_imports_inside_functions", IMPORTS,
     "import os\ndef f():\n from math import pi\n"
     "class C:\n def g(self):\n  def h():\n   import sys\n",
     ["", "f", "C.g.h"]),
    ("checker_finds_budget_knobs", budget_knob,
     "def f(x, cap=None): pass\n"
     "def g(y, *, max_depth=3): return config.word_cap()\n"
     "a = word_cap(5)\ndef h(x): return word_cap(cap=x)\n",
     ["", "g", "h"]),
    ("checker_finds_budget_knobs", parameter("cap"),
     "def f(x, cap=None): return word_cap(cap=x)\n", ["f"]),
    ("checker_finds_budget_knobs", (ast.arg,),
     "def word_cap(override=None): return lambda k: k\n"
     "class C:\n def f(self, *a, **b): pass\n",
     ["word_cap", "word_cap", "C.f", "C.f", "C.f"]),
    ("checker_finds_einsum_calls", call("einsum"), NUMPY, ["", ""]),
    ("checker_finds_arctan2_calls", call("arctan2"), NUMPY, [""]),
    ("checker_finds_ascontiguousarray_calls", call("ascontiguousarray"),
     NUMPY, [""]),
    ("checker_finds_power_calls", call("power"), NUMPY, [""]),
    ("checker_finds_philox_calls", call("Philox"), NUMPY, ["rng", ""]),
    ("checker_finds_calls_in_functions", call("g"), CALLS, ["f", "f", "k"]),
    ("checker_finds_calls_in_functions", call("h"), CALLS, ["f"]),
    ("checker_finds_decorator_owners", call("memo"),
     "@memo(3)\ndef f(): pass\n"
     "class C:\n @memo(4)\n def g(self, x=memo(5)): pass\n",
     ["f", "C.g", "C.g"]),
    ("checker_finds_s_branches", s_branch,
     "def a(s):\n if s <= 1.0: return 0\n return 1 if s <= 2.0 else 2\n"
     "def b(s, t): return s < 1.0 or t > 2.0\n"
     "class C:\n def c(self, x):\n"
     "  def inner(s): return s <= 1.0 or 2.0 < s\n"
     "  return x > 1.0 and inner(x) > 2.0\n", ["a", "C.c.inner"]),
    ("checker_finds_power_loops", power_loop,
     "def a(n, m):\n while n ** m > 9 and m > 1: m -= 1\n"
     " while m < 3: m += 1\n"
     "class C:\n def b(self, k):\n  while pow(2, k) > 5: k -= 1\n"
     "  def inner(j):\n   while 3 ** j < 9: j += 1\n"
     "while 2 ** 3 < 1: pass\n", ["", "C.b", "C.b.inner", "a"]),
    ("checker_finds_entry_determinants", determinant,
     "def f(a, b, c, d): return a * d - b * c\n"
     "class C:\n def g(self, m):\n"
     "  return m[:, 1, 1] * m[:, 0, 0] - m[:, 0, 1] * m[:, 1, 0]\n"
     "x = -(b * c - d * a)\ncross = e[0] * o[:, 1] - e[1] * o[:, 0]\n"
     "y = a * b - c * d\nz = m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]\n",
     ["", "C.g", "f"]),
    ("checker_finds_norms_and_axis0_reductions", call("norm"),
     "d = np.linalg.norm(p - c, axis=1)\n", [""]),
    ("checker_finds_norms_and_axis0_reductions", axis0,
     "lo = p.min(axis=0)\nhi = p[:, 0].max(); d = np.hypot(p, q, axis=1)\n"
     "n = np.sum(p, axis=0, keepdims=True)\n# p.max(axis=0)\n", ["", ""]),
    ("checker_finds_loops", LOOPS,
     "def f(xs):\n for x in xs: pass\n ys = [x for x in xs]\n"
     " return sum(x for x in ys)\n"
     "def g(xs):\n while xs: xs = {x: 1 for x in xs[1:]}\n"
     "for y in range(3): pass\n", ["", "f", "f", "f", "g"]),
    ("checker_finds_matmuls", matmul,
     "class C:\n def f(self, a, b): return a @ b\n"
     " def g(self, a):\n  a @= a\n  return [x @ x for x in a]\n"
     "def f(a): return a @ a\n", ["C.f", "C.g", "C.g", "f"]),
    ("checker_finds_matmuls_in_functions", matmul,
     "def f(a):\n b = a @ a\n@derived\ndef g(a): return [x @ x for x in a]\n"
     "def h(a): return mul2(a, a)\n", ["f", "g"]),
    ("checker_finds_object_arrays", object_array,
     "y = x.astype(object)\nz = np.array(x, dtype=object)\n"
     "w = x.astype(float)\nv = np.empty(3, dtype=float)\n"
     "u = isinstance(x, object)\n", ["", ""]),
    ("checker_finds_libm_loops", libm_loop,
     "def f(x, s): return np.fromiter(map(math.pow, x, s), float)\n"
     "class C:\n def g(self, y):\n"
     "  return np.fromiter(map(math.atan, y), float)\n"
     "z = np.fromiter(map(math.exp, [1.0]), float)\n"
     "w = np.fromiter(map(abs, [1.0]), float)\n"
     "ok = all(map(math.isfinite, [1.0]))\n", ["", "C.g", "f"]),
    ("checker_finds_cache_accesses", attribute("_cache"),
     "x = ifs._cache['key']\nifs._cache[1] = 2\n_cache = {}\n"
     "y = self._cache.get(3)\n", ["", "", ""]),
    ("checker_finds_cache_owners", attribute("_cache"),
     "x = ifs._cache\n"
     "def derived(fn):\n def memo(ifs): return ifs._cache[fn]\n"
     "class Ifs:\n def __init__(self): self._cache = {}\n"
     " def level(self, n): return self._cache.get(n)\n",
     ["", "derived.memo", "Ifs.__init__", "Ifs.level"]),
    ("checker_finds_call_owners", call("load"), WRITES, ["", "main"]),
    ("checker_finds_call_owners", call("write"), WRITES,
     ["Sink.write", "main"]),
    ("checker_finds_writes_to_stdout", call("print"), WRITES, ["", "main"]),
    ("checker_finds_writes_to_stdout", attribute("stdout"), WRITES,
     ["Sink.write"]),
    ("checker_finds_dataclasses", dataclass_use,
     "from dataclasses import field\nimport dataclasses as dc\n"
     "@dataclass\nclass A: x: int\n"
     "@dc.dataclass(frozen=True)\nclass B: y: int = field()\n"
     "class C(NamedTuple): z: int\n", ["", "", "A", "B"]),
]


def check_hit(hit, source, expected):
    assert sorted(owners(ast.parse(source), hit)) == sorted(expected)


bind(check_hit, [(case, args) for case, *args in CHECKS])


def test_every_hit_is_checked():
    # a hit that finds nothing in any source checks nothing; the hits that
    # call, attribute or parameter make differ in a name alone and share
    # their code
    assert {getattr(rule.hit, "__code__", rule.hit) for rule in RULES} \
        <= {getattr(hit, "__code__", hit) for _, hit, _, found in CHECKS
            if found}


def test_checker_reads_where():
    # a rule reads the hits under the definitions its where names, nested
    # ones too, and fails when a glob names no definition
    trees = {"m.py": ast.parse("def f(a): return g(a) + g(h(a))\n"
                               "def k(a):\n def inner(): return g(a)\n"
                               "class C:\n def m(self): return g(h(1))\n")}
    check_rule(Rule("", call("g"), "m.py:k", "m.py:k.inner", True), ["m.py"],
               trees)
    check_rule(Rule("", call("h"), "m.py:k *:C.m", "*.m"), ["m.py"], trees)
    check_rule(Rule("", call("g"), "*", "m.py:f m.py:f", True), [], trees)
    for where, allowed, exact in [("m.py:f", "", False),
                                  ("m.py:k", "m.py:k", True),
                                  ("m.py:k m.py:h", "", False),
                                  ("m.py:C.n", "", False)]:
        with pytest.raises(AssertionError):
            check_rule(Rule("", call("h"), where, allowed, exact), ["m.py"],
                       trees)


def unused_imports(tree):
    """Names bound by import statements and never read in the module."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, IMPORTS)
                for alias in node.names}
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    src = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(ast.parse(src)) == ["pi"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports(TREES[module]) == []


def constructors(tree):
    """{id(call): class name} for the calls of cls in the classmethods of
    the classes defined in tree: each builds an instance of its class."""
    return {id(n): c.name for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) for f in c.body
            if any(getattr(d, "id", None) == "classmethod"
                   for d in getattr(f, "decorator_list", ()))
            for n in ast.walk(f) if isinstance(n, ast.Call)
            and getattr(n.func, "id", None) == "cls"}


@functools.cache
def call_table(trees):
    """For each callee name, the (positions, keywords) that each call in
    the trees sets; a call of cls in a classmethod names its class.  A
    starred argument sets every position and a ** argument every keyword,
    marked by None among the keywords."""
    calls = {}
    for tree in trees:
        made = constructors(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = made.get(id(node), getattr(
                node.func, "id", getattr(node.func, "attr", None)))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append(
                (math.inf if starred else len(node.args),
                 {k.arg for k in node.keywords}))
    return calls


def defaulted_parameters(tree):
    """(function name, position, parameter) of the defaulted parameters
    of the functions defined in tree; a keyword-only parameter has
    position inf.  Calls match definitions by callee name, so a method's
    first parameter, its receiver, is not counted, and an __init__ goes
    by the name of its class, which its calls name."""
    methods = {id(f): c.name for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = methods.get(id(node), node.name) if node.name == "__init__" \
            else node.name
        args = node.args
        params = args.posonlyargs + args.args
        if id(node) in methods:
            params = params[1:]
        first = len(params) - len(args.defaults)
        for k in range(first, len(params)):
            yield name, k, params[k].arg
        for p, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield name, math.inf, p.arg


def defaults_set(tree, calls):
    """For each defaulted parameter of the functions defined in tree, as
    "name(parameter)", whether each call in the call table sets it, by
    keyword or by position."""
    return sorted((f"{name}({p})", [position < given or p in named
                                    or None in named
                                    for given, named in calls.get(name, [])])
                  for name, position, p in defaulted_parameters(tree))


def dead_options(tree, calls):
    return [p for p, sets in defaults_set(tree, calls) if not any(sets)]


def unread_defaults(tree, calls):
    return [p for p, sets in defaults_set(tree, calls) if sets and all(sets)]


DEFAULTS = ast.parse("def f(x, y=1, *, z=2): pass\nclass C:\n"
                     " def m(self, a=0, b=1): pass\n"
                     " def __init__(self, k=3): pass\ndef g(p, q=0): pass\n"
                     "def h(r=0): pass\ndef t(u=0): pass\n")


def test_checker_finds_dead_options():
    calls = ast.parse("f(1, 2)\nC().m(b=4)\nk(z=5)\ng(*[1, 2])\n"
                      "h(**{'r': 1})\n")
    assert dead_options(DEFAULTS, call_table((DEFAULTS, calls))) \
        == ["C(k)", "f(z)", "m(a)", "t(u)"]


def test_checker_reads_constructor_calls():
    # an __init__ is set by calls of its class and, in the class's
    # classmethods, by calls of cls; a cls that is only a parameter name
    # builds nothing
    src = ast.parse("class A:\n def __init__(self, x, y=0, z=1): pass\n"
                    " @classmethod\n def make(cls, d): return cls(d, 2)\n"
                    "class B:\n def __init__(self, w=0): pass\n"
                    " def f(self, cls): return cls(1)\n"
                    " @staticmethod\n def g(cls): return cls(2)\n"
                    "a = A(1)\n")
    assert dead_options(src, call_table((src,))) == ["A(z)", "B(w)"]


def test_checker_finds_unread_defaults():
    calls = ast.parse("f(1, 2, z=3)\nf(0, y=1)\nC().m(1)\nC(k=1).m(2, b=3)\n"
                      "g(*[1, 2])\nh(**{'r': 1})\n")
    assert unread_defaults(DEFAULTS, call_table((DEFAULTS, calls))) \
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
    found = dead_options(TREES[module],
                         call_table(tuple(TREES.values())))
    assert [f for f in found if not f.startswith(ALLOWED_DEAD_OPTIONS)] == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_defaults(module):
    # a default that every call overrides is never read
    calls = call_table(tuple(TREES.values())
                       + tuple(map(parsed, TEST_PATHS)))
    assert unread_defaults(TREES[module], calls) == []


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


def package_env(**extra):
    """os.environ with the package's sources first on PYTHONPATH."""
    src = os.path.abspath(os.path.join(SRC_DIR, os.pardir))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@functools.cache
def fresh_packages():
    """The top-level packages that `import affinedim, affinedim.cli` loads
    in a fresh interpreter; the test session itself imports scipy and
    dataclasses."""
    code = "import sys, affinedim, affinedim.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=package_env()).stdout
    return {m.partition(".")[0] for m in out.split()}


def test_import_loads_no_scipy():
    assert "scipy" not in fresh_packages()


def test_import_loads_no_dataclasses():
    assert "dataclasses" not in fresh_packages()


def benchmark_tracer():
    """perfbench/tracer.py as a module, loaded from its file without adding
    perfbench to sys.path, writing its bytecode or installing its wrappers."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
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
    spans = tmp_path / "spans.json"
    run = subprocess.run(
        [sys.executable, TRACER, str(spans), "--", "dims", "--input",
         "positive_pair.json", "--seed", "1", "--out",
         str(tmp_path / "dims.json")],
        capture_output=True, text=True, cwd=tmp_path,
        env=package_env(OMP_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1"))
    assert run.returncode == 0, run.stderr
    with open(spans) as fh:
        traced = json.load(fh)["spans"]
    for name in ("estimators.covering", "estimators.grid_count"):
        points = [n for span, _, _, _, n in traced if span == name]
        assert points and min(points) >= 1, name
