import ast

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
