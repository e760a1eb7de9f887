"""The public names other code relies on: README's library example and the
names the bench scripts import from deltrace."""

import ast
import importlib
import re
from pathlib import Path

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
