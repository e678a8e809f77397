"""Fixtures shared by the test modules."""

import numpy as np
import pytest


class _Refused:
    """Stands in for an allocator: calling it, or reaching any attribute of
    it (np.multiply.outer, say), fails the test."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} was called")

    def __getattr__(self, attr: str):
        raise AssertionError(f"{self.name}.{attr} was reached")


@pytest.fixture
def refuse_alloc(monkeypatch):
    """refuse_alloc(name) makes np.<name>, or <name> of the module given,
    fail the test from then on.

    A test of a runaway input calls it first, so a regression fails there
    instead of allocating the runaway array.
    """
    def refuse(name: str, module=np) -> None:
        monkeypatch.setattr(module, name, _Refused(f"{module.__name__}.{name}"))

    return refuse
