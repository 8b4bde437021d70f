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


def test_no_module_imports_dataclasses_or_inspect():
    """Every tdr command is a fresh process, and dataclasses loads inspect,
    ast, dis and tokenize, which no tdr code needs."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}: {name}" for name in names
                      if name.partition(".")[0] in ("dataclasses", "inspect")]
    assert found == []


def test_importing_tdr_and_its_cli_loads_no_dataclasses_or_inspect():
    """In a fresh interpreter without site, import tdr, tdr.cli leaves
    dataclasses and inspect unloaded, whatever imports them."""
    import json
    import os
    import subprocess
    import sys

    script = ("import json, sys, tdr, tdr.cli; print(json.dumps(sorted("
              "m for m in ('dataclasses', 'inspect') if m in sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == []


def test_representation_imports_neither_classify_nor_decompose():
    """representation is the layer under the shapes: it reads no component
    classes and walks no traversal, in any form of import."""
    tree = ast.parse((SRC / "representation.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # from .m import x, from . import m and from tdr.m import x
            base = ".".join(["tdr"] * (node.level > 0) + [node.module or ""]).strip(".")
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names if name in ("tdr.classify", "tdr.decompose")]
    assert found == []


def test_representation_makes_no_kronecker_product():
    """The group action and the morphism check act slot by slot through
    the vertex's own flat tensor, so representation calls no .kron(, whose
    product of a vertex's slot maps holds the square of its entries."""
    tree = ast.parse((SRC / "representation.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "kron"]
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


def test_every_top_level_definition_has_a_use():
    """Every top-level function and class in src/tdr is referenced by src
    code outside its own definition (a Name, an Attribute or an imported
    name), or is a function the benchmark's tracer wraps; otherwise it is
    dead code and goes."""
    import importlib.util

    path = pathlib.Path(__file__).resolve().parents[1] / "tdrbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tdrbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = top.name
                defined.append((path.stem, owner))
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if name is not None:
                    used.add((name, path.stem, owner))
    unused = [f"{mod}.{name}" for mod, name in defined
              if (mod, name) not in tracer.TARGETS
              and not any(n == name and (m, o) != (mod, name) for n, m, o in used)]
    assert defined and unused == []


def test_every_class_member_has_a_reader():
    """Every non-dunder method and annotated field of a top-level class in
    src/tdr is read as an attribute somewhere in src (an AST Attribute of
    that name), unless a base class defines it too, as argparse does for
    cli._Parser.error; otherwise it is dead code and goes."""
    import importlib

    members, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        for top in tree.body:
            if not isinstance(top, ast.ClassDef):
                continue
            for item in top.body:
                name = (item.name if isinstance(item, ast.FunctionDef) else
                        item.target.id if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name) else None)
                if name and not (name.startswith("__") and name.endswith("__")):
                    members.append((path.stem, top.name, name))
    unread = []
    for mod, cls, name in members:
        bases = getattr(importlib.import_module(f"tdr.{mod}"), cls).__mro__[1:]
        if name not in read and not any(hasattr(b, name) for b in bases):
            unread.append(f"{mod}.{cls}.{name}")
    assert members and unread == []


def test_cycle_commands_never_import_sympy(tmp_path):
    """sympy is only the tests' oracle: gen-random in sum mode on J, and
    decompose of its rep with a degree-2 Band, run without importing it.
    The check runs in a fresh process, since pytest's own process has
    already imported sympy for the oracles."""
    import json
    import os
    import subprocess
    import sys

    from tdr import canonical_diagram, diagram_to_record
    from tdr.cli import canonical_json

    diagram = tmp_path / "j2.json"
    diagram.write_text(canonical_json(diagram_to_record(canonical_diagram("J", 2))))
    rep, key, dec = (tmp_path / name for name in ("rep.json", "key.json", "dec.json"))
    script = f"""
import json, sys
from tdr.cli import run
codes = [run(["gen-random", {str(diagram)!r}, "--dims", '{{"e1": 6, "e2": 6}}',
              "--seed", "1", "--mode", "sum", "--key-out", {str(key)!r},
              "--out", {str(rep)!r}]).exit_code,
         run(["decompose", {str(rep)!r}, "--out", {str(dec)!r}]).exit_code]
print(json.dumps({{"codes": codes, "sympy": "sympy" in sys.modules}}))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == {"codes": [0, 0], "sympy": False}
    blocks = json.loads(dec.read_text())
    assert blocks == json.loads(key.read_text())
    assert any(b["type"] == "band" and len(b["poly"]) > 2 for b in blocks)
