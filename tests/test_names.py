import ast
import importlib
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


def benchmark_attributes():
    """(module, attribute, wrapped) of each ``hdnn_audio`` module
    attribute that ``perfbench/workloads.py`` reads (wrapped False) and of
    each function that ``perfbench/tracing.py``'s WRAPS wraps (True)."""
    tree = parse(ROOT / "perfbench" / "workloads.py")
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "hdnn_audio"
               for alias in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr, False
    (wraps,) = [node.value for node in parse(ROOT / "perfbench" / "tracing.py").body
                if isinstance(node, ast.Assign)
                and [ast.unparse(target) for target in node.targets] == ["WRAPS"]]
    for entry in wraps.elts:
        module, attr = (ast.literal_eval(item) for item in entry.elts[:2])
        yield module, attr, True


def test_every_benchmark_name_exists():
    """The benchmark reads these names from the package at run time: a
    missing one fails its run, or the tracer drops the per-layer metrics
    that need it, and no other test would fail."""
    names = sorted(set(benchmark_attributes()))
    # the parse finds names of both files
    assert {("systems", "train_hdnn_system", False),
            ("features", "ContextConfig", False),
            ("mlp", "backprop_step", True)} <= set(names)
    missing = []
    for module, attr, wrapped in names:
        package_module = importlib.import_module(f"hdnn_audio.{module}")
        if not hasattr(package_module, attr) or (
                wrapped and not callable(getattr(package_module, attr))):
            missing.append(f"{module}.{attr}")
    assert missing == []
