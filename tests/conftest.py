"""Shared test helpers."""

import sys

import pytest


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts from empty package memos, as each benchmark round
    does, so no test reads a value an earlier one left cached (a module not
    yet imported has none).  The solver memos are keyed without the solver
    tolerance, so a test that sets ``meanfield.SOLVER_TOL`` also relies on
    this."""
    for name, module in list(sys.modules.items()):
        if name == "kmajority" or name.startswith("kmajority."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", "") == name:
                    value.cache_clear()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) replaces module.name by a wrapper that
    records each call's positional arguments, and returns that record."""

    def count(module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        return calls

    return count


def edges(graph):
    """Each edge of ``graph`` once, as (u, v) with u < v, row by row."""
    for u in range(graph.n):
        for v in graph.neighbors_of(u):
            if u < v:
                yield u, int(v)
