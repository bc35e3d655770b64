"""Every function, class and method in the package has a caller in the
package itself: a name that only tests reach is dead code. Every name a
package or test module imports is used in that module."""

import ast
from pathlib import Path

import fedbiwgan

# reached only from tests on purpose: the acceptance gate calls the first
# five, overhead_bytes is the test oracle of the wire layout, and narrow
# slices one step of a sequence in the step-by-step engine references that
# the VLSTM cell, generator and encoder are checked against
ALLOWED = {
    ("autodiff", "concat"),
    ("nn", "gradient_penalty_backward"),
    ("experiment", "calibrate_experiment"),
    ("experiment", "detect_experiment"),
    ("ledger", "CostLedger.message_count"),
    ("wire", "overhead_bytes"),
    ("autodiff", "narrow"),
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_has_a_caller_in_the_package():
    defined, used = [], set()
    for path in sorted(Path(fedbiwgan.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.stem, f"{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef) and not _dunder(item.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    unused = {(module, qualname) for module, qualname, name in defined if name not in used}
    assert unused - ALLOWED == set()
    assert ALLOWED - unused == set(), "an allowed name now has a caller; drop it from ALLOWED"


def test_every_imported_name_is_used():
    package = Path(fedbiwgan.__file__).parent
    unused = []
    for path in sorted([*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # `import a.b` binds `a`
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
