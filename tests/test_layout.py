"""Layout rule: private names do not cross module boundaries.

No module of the package may import an `_`-prefixed name from another
zetaphase module, nor read one as an attribute of another zetaphase
module (as in `zmod._helper`).  Dunder names are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zetaphase"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "zetaphase"


def private_crossings(source: str) -> list[str]:
    """Every cross-module use of a private name in one module's source."""
    tree = ast.parse(source)
    module_aliases: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package_import(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, node.col_offset, f"imports {alias.name}"))
                # `from . import zeros as zmod` binds a module.
                if node.module is None or node.module == "zetaphase":
                    module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "zetaphase":
                    module_aliases.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in module_aliases:
            found.append((node.lineno, node.col_offset, f"reads {ast.unparse(node)}"))
    return [f"line {line}: {what}" for line, _, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    assert private_crossings(path.read_text()) == []


def test_guard_flags_both_forms():
    source = (
        "from .special import _THETA_COEFFS, theta_series_vec\n"
        "from . import zeros as zmod\n"
        "import zetaphase.render as zr\n"
        "import zetaphase\n"
        "x = zmod._smooth_count(3.0) + zmod.smooth_count(3.0) + zr._SHADE_STEP\n"
        "y = zmod.__name__ + zetaphase.special._MAX\n"
    )
    assert private_crossings(source) == [
        "line 1: imports _THETA_COEFFS",
        "line 5: reads zmod._smooth_count",
        "line 5: reads zr._SHADE_STEP",
        "line 6: reads zetaphase.special._MAX",
    ]


def test_package_modules_found():
    assert {"zeros.py", "verify.py", "cli.py"} <= {p.name for p in MODULES}
