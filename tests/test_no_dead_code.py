"""Every function, class and method in the package has a caller in the
package itself: a name that only tests reach is dead code. Every name a
package or test module imports is used in that module."""

import ast
from pathlib import Path

import numpy as np

import fedbiwgan
from fedbiwgan.federation import CriticBank, MonitorNode, TrainingConfig
from fedbiwgan.models import CriticModel, EncoderModel, GeneratorModel, ModelConfig

# reached only from tests on purpose: the acceptance gate calls the first
# four, overhead_bytes is the test oracle of the wire layout, and narrow
# slices one step of a sequence in the step-by-step engine references that
# the VLSTM cell, generator and encoder are checked against
ALLOWED = {
    ("autodiff", "concat"),
    ("experiment", "calibrate_experiment"),
    ("experiment", "detect_experiment"),
    ("ledger", "CostLedger.message_count"),
    ("wire", "overhead_bytes"),
    ("autodiff", "narrow"),
    # the reference engine, reached from the tests (graph_reference.py and
    # the engine references); it stays in the package only because the
    # benchmark harness imports it
    ("autodiff", "no_record"),
    ("autodiff", "tensor"),
    ("autodiff", "transpose"),
    ("autodiff", "sigmoid"),
    ("autodiff", "tmean"),
    ("autodiff", "grad"),
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


def test_parameters_are_arrays_and_only_autodiff_is_the_engine():
    # no package module but the engine itself imports it or names its
    # Tensor, and every model holds its parameters as plain float64 arrays
    package = Path(fedbiwgan.__file__).parent
    users = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "autodiff":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name.split(".")[-1] for alias in node.names]
            else:
                names = [getattr(node, "id", None) or getattr(node, "attr", None)]
            if "autodiff" in names or "Tensor" in names:
                users.append(f"{path.name}:{node.lineno}")
    assert users == []

    cfg = ModelConfig(features=3, window=3, latent_dim=2, gen_hidden=(3, 3),
                      critic_hidden=(4, 3))
    rng = np.random.default_rng(0)
    monitors = [MonitorNode(0, n, rng.random((6, 3, 3)), cfg, TrainingConfig(), 0)
                for n in range(2)]
    for model in (GeneratorModel(cfg, rng), EncoderModel(cfg, rng), CriticModel(cfg, rng),
                  CriticBank(monitors).critic):
        for name, p in model.params().items():
            assert type(p) is np.ndarray and p.dtype == np.float64, name
