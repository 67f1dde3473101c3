"""Shared helpers for the analyzer tests."""

from pathlib import Path

import pytest

from repro.analysis import analyze

FIXTURES = Path(__file__).parent / "fixtures"
SRC_ROOT = Path(__file__).parents[2] / "src" / "repro"


@pytest.fixture(scope="module")
def fixture_findings():
    """Lint one fixture file and return its findings."""

    def run(name: str):
        return analyze([FIXTURES / name]).findings

    return run


@pytest.fixture(scope="session")
def tree_report():
    """One whole-tree lint pass shared by every test that gates on it."""
    return analyze([SRC_ROOT])
