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
