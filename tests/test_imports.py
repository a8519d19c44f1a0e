import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "emocnn"


def test_the_package_imports_only_numpy_and_the_standard_library():
    # numpy is the only runtime dependency pyproject.toml declares.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            top = {m.split(".")[0] for m in modules}
            outside += [f"{path.name}: {t}" for t in sorted(top) if t != "numpy" and t not in sys.stdlib_module_names]
    assert outside == []
