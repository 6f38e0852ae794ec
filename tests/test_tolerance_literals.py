"""Every tolerance in ``src/`` is a named module-level constant.

A float literal other than 0.0 and 1.0 is taken as a tolerance when it sits
inside an operand of a comparison or inside an argument of ``max``, ``min``,
``np.maximum``, ``np.minimum`` or ``np.clip``, and an int literal is taken as
a rounding quantum when it is the decimals argument of ``np.round``,
``round`` or a ``.round`` method.  Such a literal must be part of a
module-level constant's assignment, or be one of the halves and thresholds
on the allow-list below.
"""

import ast
from pathlib import Path

import wiretap_regions

SRC = Path(wiretap_regions.__file__).parent

_CLAMPS = {"max", "min", "maximum", "minimum", "clip"}

# (module, enclosing function, literal): how many such literals may stand bare
ALLOWED = {
    # sigma / 2, the coarsest grid spacing, and log(sigma) = log(var) / 2
    ("fisher_lab.py", "_stack_quadrature", 0.5): 2,
    # halving the step must halve the residual's truncation part
    ("fisher_lab.py", "debruijn_check", 0.5): 1,
    # the recession LP's optimum is 0 or 1: -0.5 splits the two
    ("polytope_fm.py", "vertices", -0.5): 1,
}


def _is_clamp(call: ast.Call) -> bool:
    f = call.func
    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
    return name in _CLAMPS


def _rounding_decimals(call: ast.Call):
    """The decimals argument of a call to ``np.round``, ``round`` or a
    ``.round`` method, or None for any other call."""
    f = call.func
    if isinstance(f, ast.Name) and f.id == "round":
        at = 1                                     # round(x, ndigits)
    elif isinstance(f, ast.Attribute) and f.attr == "round":
        module = isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy")
        at = 1 if module else 0                    # np.round(x, decimals), x.round(decimals)
    else:
        return None
    if len(call.args) > at:
        return call.args[at]
    return next((k.value for k in call.keywords if k.arg in ("decimals", "ndigits")), None)


def _int_literal(node):
    """The value of an int constant node (a negated one read as negative), or
    None for any other node or None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _int_literal(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, ast.Constant) and type(node.value) is int else None


def _float_literals(node):
    """The float constants in a subtree, a negated one read as negative."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.UnaryOp) and isinstance(sub.op, ast.USub) \
                and isinstance(sub.operand, ast.Constant) and type(sub.operand.value) is float:
            yield sub.operand, -sub.operand.value
        elif isinstance(sub, ast.Constant) and type(sub.value) is float:
            yield sub, sub.value


class _Finder(ast.NodeVisitor):
    """(function, line, value) of each bare tolerance literal of one module."""

    def __init__(self):
        self.found, self.scope, self.seen = [], [], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def _flag(self, operands):
        for operand in operands:
            for const, value in _float_literals(operand):
                if id(const) not in self.seen and value not in (0.0, 1.0):
                    self.seen.add(id(const))
                    self.found.append((self.scope[-1] if self.scope else "", const.lineno,
                                       value))

    def visit_Compare(self, node):
        self._flag([node.left, *node.comparators])
        self.generic_visit(node)

    def visit_Call(self, node):
        if _is_clamp(node):
            self._flag([*node.args, *(k.value for k in node.keywords)])
        decimals = _rounding_decimals(node)
        value = _int_literal(decimals)
        if value is not None:
            self.found.append((self.scope[-1] if self.scope else "", decimals.lineno, value))
        self.generic_visit(node)


def bare_tolerances(tree: ast.Module):
    """(function, line, value) of every float literal used as a tolerance and
    every int literal used as a rounding quantum outside a module-level
    assignment, in source order (a literal inside a nested comparison and
    clamp is listed once)."""
    finder = _Finder()
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            finder.visit(stmt)
    return sorted(finder.found, key=lambda f: f[1])


def _violations(files):
    out = []
    for path in files:
        allowed = {(fn, v): n for (mod, fn, v), n in ALLOWED.items() if mod == path.name}
        for fn, line, value in bare_tolerances(ast.parse(path.read_text())):
            if allowed.get((fn, value), 0) > 0:
                allowed[(fn, value)] -= 1
            else:
                out.append(f"{path.name}:{line} {fn}: bare {value!r}")
    return out


def test_src_uses_no_bare_tolerance():
    assert _violations(sorted(SRC.glob("*.py"))) == []


def test_the_allow_list_names_literals_that_exist():
    # an entry that no longer matches a literal would silently allow a new one
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for fn, _, value in bare_tolerances(ast.parse(path.read_text())):
            found[(path.name, fn, value)] = found.get((path.name, fn, value), 0) + 1
    assert {k: found.get(k, 0) for k in ALLOWED} == ALLOWED


def test_the_guard_flags_comparisons_and_clamps_but_not_constants():
    src = (
        "TOL = 1e-9\n"
        "LIMIT = max(2.5, 3)\n"
        "def f(x, y):\n"
        "    a = x > 1e-9 * y\n"
        "    b = np.clip(x, -1e-12, None)\n"
        "    c = min(x, 0.0) < TOL and max(y, 1.0) == 1\n"
        "    d = 2.0 * x\n"
        "    return x <= y + 0.25 if a else np.maximum(x, 1e-3 * y)\n"
    )
    assert bare_tolerances(ast.parse(src)) == [("f", 4, 1e-9), ("f", 5, -1e-12),
                                               ("f", 8, 0.25), ("f", 8, 1e-3)]


def test_the_guard_flags_a_literal_rounding_quantum():
    src = (
        "DECIMALS = round(2.5, 1)\n"
        "def f(x, n):\n"
        "    a = np.round(x, 12) + round(x, ndigits=-3)\n"
        "    b = x.round(9) + numpy.round(x, decimals=6) + np.round(x)\n"
        "    return a + b + np.round(x, DECIMALS) + x.round(n) + round(x)\n"
    )
    assert bare_tolerances(ast.parse(src)) == [("f", 3, 12), ("f", 3, -3), ("f", 4, 9),
                                               ("f", 4, 6)]
