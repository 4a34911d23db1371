import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hdnn_audio"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def defined_names(tree):
    """Top-level functions, classes and constants of a module, and the
    methods of its classes, with their line numbers; dunder names are
    called by Python itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno


def referenced_names(tree):
    """Every name a module reads: loaded names, attributes, imported
    names, and string constants (the benchmark's tracer wraps functions
    by their names)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_package_name_is_used():
    """A helper folded into its caller must not stay behind uncalled."""
    referenced = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            referenced.update(referenced_names(parse(path)))
    unused = [f"{path.name}:{line} {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name, line in defined_names(parse(path))
              if not (name.startswith("__") and name.endswith("__"))
              and name not in referenced]
    assert unused == []
