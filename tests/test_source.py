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
