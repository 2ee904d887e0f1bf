"""Shared test helpers."""

import pytest


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
