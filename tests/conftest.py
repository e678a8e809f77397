"""Fixtures shared by the test modules."""

import numpy as np
import pytest


class _Refused:
    """Stands in for an allocator: calling it, or reaching any attribute of
    it (np.multiply.outer, say), fails the test.  With over, a call of
    np.linspace for at most over points goes through."""

    def __init__(self, name: str, real=None, over: int | None = None) -> None:
        self.name, self.real, self.over = name, real, over

    def __call__(self, *args, **kwargs):
        if self.over is not None:
            num = kwargs.get("num", args[2] if len(args) > 2 else 50)
            if num <= self.over:
                return self.real(*args, **kwargs)
            raise AssertionError(f"{self.name} was called for {num} points")
        raise AssertionError(f"{self.name} was called")

    def __getattr__(self, attr: str):
        raise AssertionError(f"{self.name}.{attr} was reached")


@pytest.fixture
def refuse_alloc(monkeypatch):
    """refuse_alloc(name) makes np.<name>, or <name> of the module given,
    fail the test from then on; refuse_alloc("linspace", over=n) only its
    calls for more than n points.

    A test of a runaway input calls it first, so a regression fails there
    instead of allocating the runaway array.
    """
    def refuse(name: str, module=np, over: int | None = None) -> None:
        monkeypatch.setattr(module, name, _Refused(f"{module.__name__}.{name}",
                                                   getattr(module, name), over))

    return refuse
