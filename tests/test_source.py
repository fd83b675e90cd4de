import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pipl"


def test_every_src_definition_is_named_in_src():
    # a module-level function or class of src/, or a method of such a class
    # other than a dunder, that nothing in src/ names, as a Name or an
    # Attribute, outside its own definition (a package __init__ re-export
    # does not count) serves the tests alone: it belongs in tests/oracles.py,
    # or nowhere.  Names are matched, not bindings: a method that shares its
    # name with anything named elsewhere, as an add would with np.add,
    # escapes this check
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    defined, named = set(), set()
    for path, tree in trees.items():
        owners = {}  # id of each node inside a definition -> the names it defines
        for node in tree.body:
            if not isinstance(node, definitions):
                continue
            methods = [m for m in node.body if isinstance(m, definitions)
                       and not m.name.startswith("__")] if isinstance(node, ast.ClassDef) else []
            for d in (node, *methods):
                defined.add(d.name)
                for sub in ast.walk(d):
                    owners.setdefault(id(sub), set()).add(d.name)
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name not in owners.get(id(node), ()):
                    named.add(name)
    assert sorted(defined - named) == []


def test_every_defaulted_parameter_is_read():
    # a parameter with a default that its function's body never names (as a
    # Name, nested functions included) is a setting that changes nothing
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            body = node.body if isinstance(node.body, list) else [node.body]
            names = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [f"{path.name}:{getattr(node, 'name', 'lambda')}({a.arg})"
                       for a in defaulted if a.arg not in names]
    assert unread == []
