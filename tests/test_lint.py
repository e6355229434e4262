"""Source rules that hold for every module of the package."""

import ast
import subprocess
import sys
from pathlib import Path

import wittcount


def _package_nodes():
    """(file name, node) for every AST node of every module of the package."""
    for path in sorted(Path(wittcount.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_bare_assert_in_the_package():
    # ``python -O`` strips assert statements, so every invariant of the
    # package raises AssertionError explicitly
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares ``dependencies = []``: every import is
    # relative or names a standard-library module
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [f"{name}:{node.lineno}:{module}" for module in modules
                  if module.partition(".")[0] not in sys.stdlib_module_names]
    assert not found, found


def test_elements_are_built_only_in_fields():
    # a tabled field holds one FqElem per value, which every other module
    # reaches through the field; a call of the class elsewhere builds copies
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if name != "fields.py" and isinstance(node, ast.Call)
             and "FqElem" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert not found, found


def test_only_fields_imports_the_element_class():
    # F_q elements reach F_q[T] and F_q(T) only as their integer encodings;
    # ``__init__.py`` imports the class only to re-export it
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if name not in ("fields.py", "__init__.py") and isinstance(node, ast.ImportFrom)
             and any(alias.name == "FqElem" for alias in node.names)]
    assert not found, found


def test_no_class_defines_reflected_or_division_operators():
    # an operator takes an operand of its own class, and only * also an int,
    # on either side through __rmul__: no element divides or adds an int
    names = {"__radd__", "__rsub__", "__truediv__", "__rtruediv__"}
    found = [f"{name}:{stmt.lineno}:{target}" for name, node in _package_nodes()
             if isinstance(node, ast.ClassDef) for stmt in node.body
             for target in ([stmt.name] if isinstance(stmt, ast.FunctionDef) else
                            [t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)])
             if target in names]
    assert not found, found


def test_the_package_reads_no_process_environment():
    # every input comes through an argument or a command-line flag, so no
    # environment variable can change a result without showing in the call
    names = {"environ", "environb", "getenv"}
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if getattr(node, "attr", None) in names or getattr(node, "id", None) in names
             or isinstance(node, ast.alias) and node.name in names]
    assert not found, found


def test_every_top_level_import_binds_a_name_the_module_reads():
    # an import that nothing reads loads a module, or states a dependency,
    # for no caller; ``__init__.py`` imports only to re-export
    found = []
    for path in sorted(Path(wittcount.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                found += [f"{path.name}:{node.lineno}:{alias.name}" for alias in node.names
                          if (alias.asname or alias.name.partition(".")[0]) not in read]
    assert not found, found


def _imported_modules(node):
    """The modules an import statement names, those of the package by their bare name."""
    if isinstance(node, ast.ImportFrom) and node.module is None:  # from . import a, b
        return [alias.name for alias in node.names]
    names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
    return [name.removeprefix("wittcount.") for name in names]


def test_function_level_imports_break_an_import_cycle():
    # an import inside a function is allowed only where the imported module
    # imports this one at top level, so that hoisting it would be circular
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in Path(wittcount.__file__).parent.glob("*.py")}
    top = {name: {module for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                  for module in _imported_modules(node)}
           for name, tree in trees.items()}
    found = [f"{name}.py:{node.lineno}:{module}" for name, tree in sorted(trees.items())
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
             for module in _imported_modules(node) if name not in top.get(module, ())]
    assert not found, found


def test_import_loads_no_dataclasses_or_inspect():
    # every library and CLI call starts a process that imports the package,
    # ``dataclasses`` alone pulls in inspect, ast, dis and tokenize, and
    # ``fractions`` pulls in decimal
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import wittcount, wittcount.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & sys.modules.keys()))")
    src = str(Path(wittcount.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


MODULE_ORDER = ("fields", "polys", "rationals", "witt", "asw", "counting", "carlitz", "checks", "cli")


def test_top_level_imports_follow_one_module_order():
    # a module imports at top level only modules before it in MODULE_ORDER,
    # which names every module but ``__init__``, so no new cycle can creep in
    package = Path(wittcount.__file__).parent
    assert sorted(MODULE_ORDER) == sorted(path.stem for path in package.glob("*.py")
                                          if path.stem != "__init__")
    found = [f"{name}.py:{node.lineno}:{module}" for k, name in enumerate(MODULE_ORDER)
             for node in ast.parse((package / f"{name}.py").read_text()).body
             if isinstance(node, ast.ImportFrom) and node.level
             for module in _imported_modules(node) if module not in MODULE_ORDER[:k]]
    assert not found, found


# read from outside the package until ROADMAP item 12 traces by the profiler
LIBRARY_CALLER_EXEMPT = {
    "asw.hasse_normalize": "bench/tracing.py TARGETS wraps it by name",
    "fields.FiniteField.mul_val": "bench/tracing.py field_op_ns times it",
}


def _unreferenced_definitions(sources):
    """``module.f`` and ``module.C.m`` for each module function and method of
    the {module: source} dict that no other place in it refers to, sorted.
    A function is referred to by its bare name, the name an import binds, or
    ``module.f``; a method ``C.m`` by ``C.m``, or by ``self.m`` or ``cls.m``
    inside ``C``, and any other ``x.m`` refers to every class's ``m``.
    Dunders are left out."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined, classes = set(), {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.add((module, node.name))
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = module
                defined.update((module, f"{node.name}.{f.name}") for f in node.body
                               if isinstance(f, ast.FunctionDef))
    used = set()
    for module, tree in trees.items():
        # name -> (module, name) it was imported as, the name None for a module
        bound = {alias.asname or alias.name: (node.module, alias.name) if node.module
                 else (alias.name, None)
                 for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                 for alias in node.names}

        def visit(node, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Name):
                    used.add(bound.get(child.id, (module, child.id)))
                elif isinstance(child, ast.Attribute):
                    receiver = getattr(child.value, "id", None)
                    owner, name = bound.get(receiver, (module, receiver))
                    if cls and receiver in ("self", "cls"):
                        used.add((module, f"{cls}.{child.attr}"))
                    elif receiver and name is None:
                        used.add((owner, child.attr))
                    elif name in classes:
                        used.add((classes[name], f"{name}.{child.attr}"))
                    else:
                        used.update((m, f"{c}.{child.attr}") for c, m in classes.items())
                visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

        visit(tree, None)
    return sorted(f"{module}.{name}" for module, name in defined - used
                  if not name.rpartition(".")[2].startswith("__"))


def test_every_library_function_has_a_library_caller():
    # code that only tests reach is not on the count's path or the CLI's;
    # ``__init__.py`` only re-exports, so neither its imports nor ``__all__`` are uses
    sources = {path.stem: path.read_text() for path in Path(wittcount.__file__).parent.glob("*.py")
               if path.stem != "__init__"}
    assert _unreferenced_definitions(sources) == sorted(LIBRARY_CALLER_EXEMPT)


def test_the_caller_rule_reads_the_receiver():
    two = "class A:\n    def f(self):\n        pass\n\n\nclass B:\n    def f(self):\n        pass\n"
    assert _unreferenced_definitions({"m": two + "B.f(B())\n"}) == ["m.A.f"]
    assert _unreferenced_definitions({"m": two + "def g(x):\n    x.f()\n\n\ng(A())\n"}) == []
    # across modules, through an import alias and a module attribute
    three = "def f():\n    pass\n\n\ndef g():\n    pass\n\n\ndef k():\n    pass\n"
    assert _unreferenced_definitions({"a": three, "b": "from . import a\nfrom .a import f as h\n\n"
                                                       "h()\na.g()\n"}) == ["a.k"]
