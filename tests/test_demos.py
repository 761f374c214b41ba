"""The scripts in demos/ and the README quickstart run against the package sources."""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # run a copy, so files a demo writes next to itself land in tmp_path
    script = Path(shutil.copy(demo, tmp_path))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_readme_quickstart_results():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    results, claims = [], []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expr = compile(code, "README.md", "eval")
        except SyntaxError:  # a statement; its comment is prose
            exec(code, namespace)
            continue
        results.append(eval(expr, namespace))
        claims.append(ast.literal_eval(re.match(r"\s*('[^']*'|-?\d+)", comment).group(1)))
    assert results == claims == [5, "nat_left", 4, 5]
