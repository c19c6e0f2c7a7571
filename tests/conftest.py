"""Shared fixtures for the test suite; the panel builders are in panel_helpers."""

from pathlib import Path

import pytest

from leadalloc.panel import NeighborhoodPanel, parse_panel
from panel_helpers import FIXTURE_CSV


@pytest.fixture(scope="session")
def fixture_path() -> Path:
    return FIXTURE_CSV


@pytest.fixture(scope="session")
def fixture_panel() -> NeighborhoodPanel:
    return parse_panel(FIXTURE_CSV)
