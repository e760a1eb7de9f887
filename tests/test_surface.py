"""The public names other code relies on: README's library example, the
names the bench scripts import from deltrace, and the top-level names that
load their submodule on first use."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    for label in ("unique consistent source:", "event probability:", "critical rate:"):
        assert label in out


def test_bench_imports_resolve():
    imported = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "deltrace":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    # the replay's list is the long one; an empty scan would prove nothing
    assert sum(name == "replay.py" and module == "deltrace" for name, module, _ in imported) > 10
    missing = [entry for entry in imported if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert missing == []


def test_lazy_exports_resolve_to_their_submodules():
    import deltrace

    assert len(deltrace.__all__) == len(set(deltrace.__all__)) > 40
    for name in deltrace.__all__:
        module = importlib.import_module(f"deltrace.{deltrace._SUBMODULE[name]}")
        assert getattr(deltrace, name) is getattr(module, name), name
    # before any name is resolved, as a fresh interpreter has it
    fresh = subprocess.run([sys.executable, "-c", "import deltrace; print(set(deltrace.__all__) - set(dir(deltrace)))"],
                           capture_output=True, text=True)
    assert fresh.stdout == "set()\n", fresh.stderr
    with pytest.raises(AttributeError, match="no_such_name"):
        deltrace.no_such_name
    star = {}
    exec("from deltrace import *", star)
    assert {name: star[name] for name in deltrace.__all__} == {name: getattr(deltrace, name) for name in deltrace.__all__}


def test_no_private_name_is_orphaned():
    # every module-level private name of the package is read somewhere in it,
    # outside its own definition, so a deletion leaves no dead helper behind
    defined, read = {}, set()
    for path in sorted((ROOT / "src" / "deltrace").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                names = []
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id not in names:
                    read.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    read.add(sub.attr)
            defined.update((name, path.name) for name in names
                           if name.startswith("_") and not (name.startswith("__") and name.endswith("__")))
    # the scan finds the kernel's helpers; an empty one would prove nothing
    assert {"_simulate", "_clean_runs", "_RunTables"} <= defined.keys()
    assert sorted(f"{module}: {name}" for name, module in defined.items() if name not in read) == []


def test_kernel_sizes_are_defined_once():
    # the object API imports the kernel's stages but not its sizes, so a test
    # that patches a size on channel, events or reconstruct fails at the patch
    # instead of changing nothing the stages read
    from deltrace import channel, events, kernel, reconstruct

    for name in ("BLOCK_ELEMENTS", "SEED_CHUNK", "SHORT_RUN_LENGTH", "MAX_ORACLE_STATES"):
        assert isinstance(getattr(kernel, name), int)
        assert [module.__name__ for module in (channel, events, reconstruct) if hasattr(module, name)] == []
