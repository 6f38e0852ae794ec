import ast
import pathlib

import wiretap_regions

PACKAGE = pathlib.Path(wiretap_regions.__file__).parent

# The public functions that no code in the package calls, each kept because
# an acceptance criterion in tests/test_acceptance.py calls it.
ENTRY_POINTS = {
    ("fisher_lab", "interpolation_t_star"),        # C7: the interpolation argument
    ("fisher_lab", "random_gauss_pair"),           # C7: its Gaussian pairs
    ("polytope_fm", "region_equal"),               # C2-C6: region comparison
    ("regions_discrete", "eval_original_inner"),   # C2: the per-message form
    ("regions_discrete", "random_aux_ux"),         # C2-C4: their auxes
    ("regions_discrete", "reduction_aux"),         # C4: the layered-to-degraded reduction
    ("regions_gaussian", "specialize_gauss_corollary"),   # C5: the corollaries
    ("regions_gaussian", "discretize_scalar"),     # C9: the discrete twin
}


def unreferenced(package=PACKAGE) -> set:
    """(module, name) of every public function or method of the package's
    modules that nothing in them refers to outside its own body: a function
    by name or as an attribute, a method as an attribute.  An import is not
    a reference, so a re-export in ``__init__`` does not keep a function."""
    defs, refs = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    defs.append((path.stem, node, id(node) in methods))
            elif isinstance(node, ast.Name):
                refs.append((path.stem, node.id, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.append((path.stem, node.attr, node.lineno, True))
    return {(mod, node.name) for mod, node, method in defs
            if not any(name == node.name and (attr or not method)
                       and not (m == mod and node.lineno <= line <= node.end_lineno)
                       for m, name, line, attr in refs)}


def root_bindings(package=PACKAGE) -> set:
    """Every name the package's ``__init__.py`` binds at module level: by an
    import, a def, a class or an assignment."""
    names = set()
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:
            names |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names


def test_the_package_root_binds_only_its_version():
    # each module is imported by its own name: a re-export would be a second
    # home for a name, and one that the function guard above cannot see
    assert root_bindings() == {"__version__"}


def test_the_root_guard_finds_a_re_export(tmp_path):
    (tmp_path / "__init__.py").write_text(
        '"""Doc."""\n\n__version__ = "1"\n\nfrom .mod import used, other as alias  # noqa\n'
        "import json\n\nlimit: int = 3\n\n\ndef helper():\n    inner = 1\n    return inner\n")
    assert root_bindings(tmp_path) == {"__version__", "used", "alias", "json", "limit", "helper"}


def test_every_public_function_has_a_caller_or_is_an_entry_point():
    assert unreferenced() == ENTRY_POINTS


def test_the_guard_finds_a_function_or_method_nobody_calls(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return used_too()\n\n\n"
        "def used_too():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class C:\n"
        "    def method(self):\n        return self.called()\n\n"
        "    def called(self):\n        return 0\n\n"
        "    def evaluate(self):\n        return 0\n\n\n"
        "evaluate = used\n")
    # a bare name does not keep a method of that name
    assert unreferenced(tmp_path) == {("mod", "recursive"), ("mod", "method"),
                                      ("mod", "evaluate")}
