"""Acceptance gate: one test per check in zetaphase.verify._CHECKS.

Each test calls its check as `verify.run_checks` does, a census check with
the `census` fixture's zero list and scan time, and prints its pass/fail
line; the printed block is repeated in the terminal summary by the hook in
conftest.
"""

import pytest

from zetaphase import verify

ACCEPTANCE_LINES = []
NAMES = [name for name, _, _ in verify._CHECKS]


@pytest.mark.parametrize("number", range(1, len(NAMES) + 1), ids=NAMES)
def test_acceptance(request, number):
    name, needs_zeros, fn = verify._CHECKS[number - 1]
    result = fn(*request.getfixturevalue("census")) if needs_zeros else fn()
    line = f"criterion {number:02d} ({name}): {result.line()}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert result.passed, line


def test_one_test_per_check(request):
    collected = [item.name for item in request.node.parent.collect()]
    assert [n for n in collected if n.startswith("test_acceptance[")] == [
        f"test_acceptance[{name}]" for name, _, _ in verify._CHECKS]
