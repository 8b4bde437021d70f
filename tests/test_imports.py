import ast
import pathlib

import tdr

SRC = pathlib.Path(tdr.__file__).parent


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("tdr"):
                continue
            found += [f"{path.name}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert found == []


def test_benchmark_tracer_targets_resolve():
    """Every function the benchmark's tracer wraps exists in tdr, so a
    deletion that would stop a traced benchmark run fails here first;
    "matmul" is Matrix.__matmul__."""
    import importlib
    import importlib.util

    path = pathlib.Path(__file__).resolve().parents[1] / "tdrbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tdrbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod, name in tracer.TARGETS:
        home = importlib.import_module(f"tdr.{mod}")
        target = home.Matrix.__matmul__ if name == "matmul" else getattr(home, name, None)
        if not callable(target):
            missing.append(f"{mod}.{name}")
    assert tracer.TARGETS and missing == []
