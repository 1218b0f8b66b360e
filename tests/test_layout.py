"""Layout rules: private names do not cross module boundaries, and every
check lives in the test suite.

No module of the package may import an `_`-prefixed name from another
zetaphase module, nor read one as an attribute of another zetaphase
module (as in `zmod._helper`).  Dunder names are exempt.

The CI workflow runs no check of its own: its steps install the package,
run this suite on other loop maps, run the installed entry point and run
perfbench's self-test and benchmark passes.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zetaphase"
MODULES = sorted(PACKAGE.glob("*.py"))
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


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


# Each kind of command the workflow may run, in its order, as a pattern
# of the whole command.  A new check goes into the suite; a new kind of
# step is added here on purpose.
_BASELINE = 'NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" '
_PYTEST = r"PYTHONPATH=src\S* python -m pytest -q -rs"
KEPT_RUNS = [
    ("install", r'python -m pip install "\.\[test\]"'),
    ("tests", _PYTEST + " --continue-on-collection-errors"),
    ("tests on the baseline loops", _BASELINE + _PYTEST + " --continue-on-collection-errors"),
    ("pins and kernels on the AVX2 loops",
     r'out=\$\(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" ' + _PYTEST
     + r'( tests/\w+\.py)+\)\necho "\$out"\n'
     + r"if printf '%s\\n' \"\$out\" \| grep -qi skipped; then exit 1; fi"),
    ("perfbench self-test", r"python perfbench/selftest\.py"),
    ("benchmark passes",
     r'for workload in [\w ]+; do\n'
     r'last=\$\(python perfbench/run\.py --workload "\$workload" [\w -]+ \| tail -n 1\)\n'
     r'echo "\$workload: \$last"\n'
     r"printf '%s\\n' \"\$last\" \| python -c \"import json, sys; "
     r"sys\.exit\(json\.load\(sys\.stdin\)\['correct'\] is not True\)\"\n"
     r"done"),
    ("entry point", "zetaphase verify"),
    ("entry point on the baseline loops", _BASELINE + "zetaphase verify"),
]


def run_commands(text: str) -> list[str]:
    """The command of each `run:` step; a block's lines joined, unindented."""
    commands = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        step = re.fullmatch(r"( *)(?:- )?run: *(\S.*)", line)
        if not step:
            continue
        if step[2] != "|":
            commands.append(step[2])
            continue
        block = []
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= len(step[1]):
                break
            block.append(body.strip())
        commands.append("\n".join(block).strip())
    return commands


def test_ci_runs_only_the_kept_steps():
    # An unknown command shows as itself.
    text = WORKFLOW.read_text()
    kinds = [next((kind for kind, pattern in KEPT_RUNS if re.fullmatch(pattern, command)), command)
             for command in run_commands(text)]
    assert kinds == [kind for kind, _ in KEPT_RUNS]
    assert "    defaults:\n      run:\n        shell: bash\n" in text
