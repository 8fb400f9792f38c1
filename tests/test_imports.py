"""wocd reaches NumPy and SciPy only through their public modules and names,
so a release that renames a private one cannot break it; each wocd module
reads every name it imports, so a deletion leaves no import behind; and wocd or
the bench reads every module-level function and class wocd defines."""

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


def _unread_imports(path: Path) -> list:
    """(line, name) of every name that ``path`` imports and never reads.

    A read is an ``ast.Name``; walking the tree reaches the base name of
    every attribute chain too. ``from __future__`` imports are directives.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_src_reads_every_import():
    # __init__.py imports to re-export, so its names are read by callers
    files = sorted(p for p in Path(wocd.__file__).parent.glob("*.py") if p.name != "__init__.py")
    assert len(files) > 1
    found = {f.name: unread for f in files if (unread := _unread_imports(f))}
    assert found == {}


def test_unread_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport itertools\nimport numpy as np\n"
                     "import scipy.sparse\nimport os.path\nfrom .graph import Graph, _read_text\n"
                     "x = np.zeros(1)\ny = scipy.sparse.eye_array(1)\ng: Graph\n")
    assert _unread_imports(probe) == [(2, "itertools"), (5, "os"), (6, "_read_text")]


def _read_names(paths) -> set:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in the files ``paths``."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_export_is_read():
    # a name the package exports but neither wocd nor the bench reads is
    # surface kept for no caller
    src = Path(wocd.__file__).parent
    init = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    exported = {a.asname or a.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    readers = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    readers += sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
    assert len(exported) > 1 and any(p.parent.name == "bench" for p in readers)
    assert sorted(exported - _read_names(readers)) == []


def _unread_definitions(modules, readers) -> list:
    """(file name, line, name) of every module-level ``def`` and ``class`` in
    ``modules`` that no file of ``readers`` reads (see ``_read_names``)."""
    read = _read_names(readers)
    found = []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name not in read:
                    found.append((path.name, node.lineno, node.name))
    return found


def test_every_definition_is_read():
    # a function or class that neither wocd nor the bench reads is code kept
    # for no caller; methods are out of scope (public accessors such as
    # Graph.neighbors are read only by tests)
    src = Path(wocd.__file__).parent
    modules = sorted(src.glob("*.py"))
    readers = [p for p in modules if p.name != "__init__.py"]
    readers += sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
    assert len(modules) > 1 and any(p.parent.name == "bench" for p in readers)
    assert _unread_definitions(modules, readers) == []


def test_unread_definition_is_caught(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def used():\n    def inner():\n        pass\n\n\nclass Kept:\n"
                      "    def method(self):\n        pass\n\n\ndef _dead():\n    pass\n\n\n"
                      "class Gone:\n    pass\n\n\nasync def spun():\n    pass\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from .module import Gone\nused()\nx = module.Kept\n")
    assert _unread_definitions([module], [reader]) == [("module.py", 11, "_dead"),
                                                       ("module.py", 15, "Gone"),
                                                       ("module.py", 19, "spun")]
