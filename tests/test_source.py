import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pipl"


def test_every_src_definition_is_named_in_src():
    # a module-level function or class of src/ that nothing in src/ names,
    # as a Name or an Attribute, outside its own definition (a package
    # __init__ re-export does not count) serves the tests alone: it belongs
    # in tests/oracles.py, or nowhere
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    defined, named = set(), set()
    for path, tree in trees.items():
        owner = {}  # id of each node inside a definition -> the name it defines
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
                owner.update((id(sub), node.name) for sub in ast.walk(node))
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if owner.get(id(node)) != name:
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
