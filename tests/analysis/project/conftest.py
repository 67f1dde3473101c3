"""Shared helpers for the whole-program analysis tests."""

import pytest

from repro.analysis import analyze
from repro.analysis.project import build_project

from ..conftest import FIXTURES


@pytest.fixture(scope="session")
def fixture_report():
    """Analyze one fixture package by name (memoized per session)."""
    cache = {}

    def run(name: str):
        if name not in cache:
            cache[name] = analyze([FIXTURES / name])
        return cache[name]

    return run


@pytest.fixture(scope="session")
def fixture_model():
    """Build the project model for one fixture package (memoized)."""
    cache = {}

    def run(name: str):
        if name not in cache:
            cache[name] = build_project(FIXTURES / name)
        return cache[name]

    return run
