"""Shared fixtures."""

import pytest

from mahlerlab import dd, polytope, volprod


@pytest.fixture
def dd_runs(monkeypatch) -> list[int]:
    """Count DD runs and forbid building a coordinate section.

    Every ``dd.extreme_rays`` call appends its row count to the returned
    list; a ``coordinate_section`` call fails the test.
    """
    runs: list[int] = []
    real = dd.extreme_rays

    def counting(rows, start=None):
        runs.append(len(rows))
        return real(rows, start)

    def forbidden(*args):
        raise AssertionError("coordinate_section called")

    monkeypatch.setattr(dd, "extreme_rays", counting)
    monkeypatch.setattr(polytope, "coordinate_section", forbidden)
    monkeypatch.setattr(volprod, "coordinate_section", forbidden)
    return runs
