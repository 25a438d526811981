"""Every exported name resolves, every family subclasses its layer's base, submodules
import at module level only what they use and read no other module's private names, one
function builds the thread pool, every error type is raised somewhere, and importing the
package loads numpy but no scipy."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import perpetua
from perpetua import jumps, measures, testfunctions


def test_every_exported_name_resolves():
    modules = [perpetua] + [
        importlib.import_module(f"perpetua.{info.name}")
        for info in pkgutil.iter_modules(perpetua.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_every_family_subclasses_its_layers_base():
    layers = [(measures._FAMILIES, measures.LevyMeasure), (jumps._LAWS, jumps.JumpLaw),
              (testfunctions._FAMILIES, testfunctions.TestFunction)]
    assert all(registry for registry, _ in layers)
    stray = [cls.__name__ for registry, base in layers for cls in registry.values()
             if not issubclass(cls, base)]
    assert stray == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads (a name in __all__ counts as read)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(name for name in imported if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(Path(perpetua.__file__).parent.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text()))
        if names and path.stem != "__init__":  # __init__ imports to re-export
            unused[path.stem] = names
    assert unused == {}


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")
    assert _unused_imports(tree) == ["os", "tau"]


def _pool_builders(tree: ast.Module) -> list[str]:
    """The innermost function around each ThreadPoolExecutor(...) call, by name or as an
    attribute; '<module>' for a call outside every function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                fn = child.func
                if getattr(fn, "id", getattr(fn, "attr", None)) == "ThreadPoolExecutor":
                    found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_one_function_builds_the_thread_pool():
    # every path ensemble inherits the runner's seeding, blocks and refusal rule
    builders = [f"{path.stem}.{where}"
                for path in sorted(Path(perpetua.__file__).parent.glob("*.py"))
                for where in _pool_builders(ast.parse(path.read_text()))]
    assert builders == ["rng.ensemble"]


def test_pool_check_sees_every_builder():
    tree = ast.parse("import concurrent.futures as cf\nfrom concurrent.futures import ThreadPoolExecutor\n"
                     "def f():\n    def g():\n        return cf.ThreadPoolExecutor(2)\n"
                     "    with ThreadPoolExecutor() as pool:\n        pass\n"
                     "pool = ThreadPoolExecutor(1)\n")
    assert _pool_builders(tree) == ["g", "f", "<module>"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(tree: ast.Module) -> list[str]:
    """Each private name a module reads from another: 'from x import _name' as 'x:_name', and
    'name._attr' on a name the module imports as 'name._attr'.  Dunder names are public."""
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found += [f"{'.' * node.level}{node.module or ''}:{alias.name}"
                      for alias in node.names if _private(alias.name)]
            imported |= {alias.asname or alias.name for alias in node.names}
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in imported and _private(node.attr)]
    return found


def test_no_module_reads_another_modules_private_name():
    found = {}
    for path in sorted(Path(perpetua.__file__).parent.glob("*.py")):
        names = _private_reads(ast.parse(path.read_text()))
        if names:
            found[path.stem] = names
    assert found == {}


def test_private_read_check_sees_every_read():
    tree = ast.parse("import os.path as p\nimport json\nfrom . import harness, __version__\n"
                     "from .rng import _Key, stream\n_own = 1\n"
                     "def f(self):\n    return harness._ensemble, stream._x, p._y, json.__name__, "
                     "self._z, _own\n")
    assert _private_reads(tree) == [".rng:_Key", "harness._ensemble", "stream._x", "p._y"]


def _function_imports(tree: ast.Module) -> list[str]:
    """'function:line' of each import statement inside a function body."""
    return sorted({
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_no_module_imports_inside_a_function():
    found = {}
    for path in sorted(Path(perpetua.__file__).parent.glob("*.py")):
        names = _function_imports(ast.parse(path.read_text()))
        if names:
            found[path.stem] = names
    assert found == {}


def test_function_import_check_sees_an_import_in_a_method():
    tree = ast.parse("import os\nclass A:\n    def f(self):\n        from math import pi\n")
    assert _function_imports(tree) == ["f:4"]


def _leaf_errors(tree: ast.Module) -> list[str]:
    """The PerpetuaError subclasses a module defines that no class there derives from."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in tree.body if isinstance(node, ast.ClassDef)}
    errors = {"PerpetuaError"}
    while True:
        more = {name for name, of in bases.items() if of & errors} - errors
        if not more:
            break
        errors |= more
    derived_from = set().union(*bases.values())
    return sorted(name for name in errors - {"PerpetuaError"} if name not in derived_from)


def _raised_names(tree: ast.Module) -> set[str]:
    """The names in a module's raise statements: raise X(...), raise X and raise m.X."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_type_is_raised_somewhere():
    package = Path(perpetua.__file__).parent
    leaves = _leaf_errors(ast.parse((package / "errors.py").read_text()))
    raised = set().union(*(_raised_names(ast.parse(path.read_text()))
                           for path in sorted(package.glob("*.py"))))
    assert "NotReachedError" in leaves
    assert [name for name in leaves if name not in raised] == []


def test_error_check_sees_a_type_never_raised():
    tree = ast.parse("class PerpetuaError(Exception): pass\n"
                     "class A(PerpetuaError): pass\nclass B(A, ValueError): pass\n"
                     "class C(PerpetuaError): pass\nclass D(Exception): pass\n")
    assert _leaf_errors(tree) == ["B", "C"]
    assert _raised_names(ast.parse("raise B('x')\nraise errors.C\ntry:\n    pass\n"
                                   "except D:\n    raise\n")) == {"B", "C"}


def test_importing_the_package_and_its_cli_loads_no_scipy():
    src = str(Path(perpetua.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, perpetua, perpetua.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"
