"""wocd reaches NumPy and SciPy only through their public modules and names,
so a release that renames a private one cannot break it."""

import ast
from pathlib import Path

import wocd

PACKAGES = ("numpy", "scipy")


def _private_uses(path: Path) -> list:
    """(line, dotted name) of every import in ``path`` that names an
    underscore-prefixed NumPy or SciPy module or member."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] in PACKAGES and any(part.startswith("_") for part in parts):
                found.append((node.lineno, name))
    return found


def test_src_imports_no_private_numpy_or_scipy_module():
    files = sorted(Path(wocd.__file__).parent.glob("*.py"))
    assert len(files) > 1
    found = {f.name: uses for f in files if (uses := _private_uses(f))}
    assert found == {}


def test_private_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nfrom scipy.sparse import _sparsetools\n"
                     "import numpy._core.multiarray\nfrom scipy._lib import util\n"
                     "from .graph import _read_text\n")
    assert _private_uses(probe) == [(2, "scipy.sparse._sparsetools"),
                                    (3, "numpy._core.multiarray"),
                                    (4, "scipy._lib.util")]
