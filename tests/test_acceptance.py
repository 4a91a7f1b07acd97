"""Acceptance gate: every numbered criterion at full size, exact arithmetic.

Each test prints its pass/fail line (run pytest with -s to see them all);
the assertions carry the same results.
"""

import random

import pytest

from infcc import verify

SEED = 20240901


@pytest.mark.parametrize(
    "number,criterion",
    [(i, fn) for i, fn in enumerate(verify.CRITERIA, start=1)],
    ids=[fn.__name__ for fn in verify.CRITERIA],
)
def test_acceptance_criterion(number, criterion):
    name, ok, detail = criterion(random.Random(SEED + number), "full")
    print(f"[{'PASS' if ok else 'FAIL'}] {number:2d} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_10_checks_flipped_quivers(monkeypatch):
    # the loop and 2-cycle check must read flipped triangulations, not the bases
    from infcc.triangulation import Triangulation

    patched = []
    quiver = Triangulation.quiver

    def spy(self, *window):
        patched.append(bool(self.added or self.removed))
        return quiver(self, *window)

    monkeypatch.setattr(Triangulation, "quiver", spy)
    name, ok, detail = verify.criterion_10_mutation(random.Random(SEED + 10), "quick")
    assert ok, detail
    assert any(patched), patched
