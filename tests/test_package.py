import ast
import importlib
import inspect
import pkgutil

import pytest

import fade

MODULES = [importlib.import_module(m.name) for m in pkgutil.iter_modules(fade.__path__, "fade.")]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_every_library_module_declares_all():
    # fade.cli is the command-line entry point, not an import surface
    assert sorted(m.__name__ for m in MODULES if m not in EXPORTING) == ["fade.cli"]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_lists_every_public_function_and_only_existing_names(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names undefined {missing}"
    public_functions = {
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }
    assert sorted(public_functions - set(module.__all__)) == []
    assert len(set(module.__all__)) == len(module.__all__)
    exec(f"from {module.__name__} import *", {})


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("module", [fade, *MODULES], ids=lambda m: m.__name__)
def test_every_imported_name_is_used(module):
    # no linter runs on the package, so an import a deletion leaves behind stops here
    tree = ast.parse(inspect.getsource(module))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = set(_imported_names(tree)) - used - set(getattr(module, "__all__", ()))
    assert sorted(unused) == [], f"{module.__name__} imports unused {sorted(unused)}"


def _grad_writers(tree):
    """Qualified names of the top-level functions and methods that assign or
    augment an attribute named ``grad``, or an item or slice of one."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{f.name}", f) for f in node.body
                     if isinstance(f, ast.FunctionDef)]
    for name, fn in defs:
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            if any(isinstance(n, ast.Attribute) and n.attr == "grad"
                   for t in targets for n in ast.walk(t)):
                yield name
                break


def test_only_backward_accumulates_gradients():
    # an op returns each input's share of the gradient with that input;
    # adding the shares up is backward's job alone
    tree = ast.parse(inspect.getsource(importlib.import_module("fade.autodiff")))
    assert sorted(set(_grad_writers(tree))) == ["Node.__init__", "backward", "param"]
