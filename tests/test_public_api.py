"""Every public name in src/coneflow must have a user outside its own tests.

A public top-level function, class or assigned name (a constant such as
TWO_PI), or a public method or property of a public class, stays only if
another src/coneflow module (the CLI included, __init__ excluded), a
perfbench/*.py file or tests/test_acceptance.py refers to it by name.
References inside the name's own definition or assignment do not count.  The scan reads source text with ast only; nothing is imported.

Names are matched, not resolved, with two refinements that keep unrelated
names apart: attributes of external modules (np.mean) are not references,
and an attribute of a variable whose package class is known from an
annotation, a constructor call or a function's return annotation
(flow = horizontal_flow(...); flow.mass) refers to that class only.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coneflow"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ASSIGNS = (ast.Assign, ast.AnnAssign)


def class_of_calls(modules) -> dict:
    """Callable name -> the package class its call returns: classes map to
    themselves, top-level functions to their return annotation."""
    classes = {node.name for tree in modules for node in tree.body
               if isinstance(node, ast.ClassDef)}
    calls = {name: name for name in classes}
    for tree in modules:
        for node in tree.body:
            if isinstance(node, DEFS[:2]) \
                    and isinstance(node.returns, ast.Name) \
                    and node.returns.id in classes:
                calls[node.name] = node.returns.id
    return calls


def local_types(fn, calls: dict) -> dict:
    """Variable -> package class, from fn's annotated arguments and its
    single-name assignments of calls."""
    types = {arg.arg: arg.annotation.id for arg in fn.args.args
             if isinstance(arg.annotation, ast.Name)
             and arg.annotation.id in calls.values()}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            func = node.value.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in calls:
                types[node.targets[0].id] = calls[name]
    return types


def references(tree: ast.AST, calls: dict, strings: bool) -> list:
    """(key, ids of the enclosing definitions) of every reference in tree.
    A key is a name, .name for an attribute, or Class.name for an attribute
    of a typed variable; with strings, the parts of dotted identifier
    constants (the tracer's TARGETS) count as both."""
    external = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            external.update(a.asname or a.name.split(".")[0]
                            for a in node.names
                            if not a.name.startswith("coneflow"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and not node.module.startswith("coneflow"):
            external.update(a.asname or a.name for a in node.names)
    found = []

    def visit(node, chain, types):
        if isinstance(node, DEFS + ASSIGNS):
            chain = chain | {id(node)}
        if isinstance(node, DEFS[:2]):
            types = {**types, **local_types(node, calls)}
        keys = ()
        if isinstance(node, ast.Name):
            keys = (node.id,)
        elif isinstance(node, ast.Attribute):
            base = getattr(node.value, "id", None)
            if base in types:
                keys = (f"{types[base]}.{node.attr}",)
            elif base not in external:
                keys = ("." + node.attr,)
        elif isinstance(node, ast.ImportFrom) and node.module is not None \
                and (node.level or node.module.startswith("coneflow")):
            keys = tuple(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and all(p.isidentifier() for p in node.value.split(".")):
            keys = tuple(key for part in node.value.split(".")
                         for key in (part, "." + part))
        found.extend((key, chain) for key in keys)
        for child in ast.iter_child_nodes(node):
            visit(child, chain, types)

    visit(tree, frozenset(), {})
    return found


def public_definitions(tree: ast.Module):
    """(qualified name, the keys that refer to it, node) of public top-level
    functions, classes and assigned names, and of public methods and
    properties of public classes."""
    for node in tree.body:
        if isinstance(node, ASSIGNS):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) \
                            and not name.id.startswith("_"):
                        yield name.id, {name.id, "." + name.id}, node
        if not isinstance(node, DEFS) or node.name.startswith("_"):
            continue
        yield node.name, {node.name, "." + node.name}, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS[:2]) \
                        and not item.name.startswith("_"):
                    qualified = f"{node.name}.{item.name}"
                    yield qualified, {qualified, "." + item.name}, item


def unused_public_names() -> list[str]:
    modules = {path: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    calls = class_of_calls(modules.values())
    users = {**modules, ROOT / "tests" / "test_acceptance.py": None,
             **dict.fromkeys(sorted((ROOT / "perfbench").glob("*.py")))}
    found = []
    for path, tree in users.items():
        tree = tree or ast.parse(path.read_text(), str(path))
        found += references(tree, calls,
                            strings=path.parent.name == "perfbench")
    unused = []
    for path, tree in modules.items():
        for qualified, keys, node in public_definitions(tree):
            if not any(key in keys and id(node) not in chain
                       for key, chain in found):
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_public_name_has_a_user_outside_its_tests():
    unused = unused_public_names()
    assert not unused, "only their own tests use: " + ", ".join(unused)
