import ast
import os
import subprocess
import sys

from helpers import REPO_ROOT


def test_no_function_body_imports_in_the_package():
    # imports belong at module level, where a cycle between modules shows
    # up at import time instead of on some later call
    local = []
    for path in sorted((REPO_ROOT / "src" / "expreg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    local.append(f"{path.name}:{node.lineno} in {getattr(func, 'name', 'lambda')}")
    assert local == []


def test_cli_and_corpus_load_no_rational_arithmetic_and_no_dataclasses():
    # both certificates test block sums with one integer annihilator, and
    # the records are NamedTuples, so a decide pays for none of these
    # imports (dataclasses alone pulls in inspect, ast, dis and tokenize)
    code = (
        "import sys, expreg.cli, expreg.corpus\n"
        "print(sorted(m for m in ('dataclasses', 'decimal', 'fractions', 'inspect')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert proc.stdout == "[]\n", proc.stderr
