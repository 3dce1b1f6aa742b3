"""Fixtures shared by every test module."""

import pytest

from schemekit import modular


@pytest.fixture(autouse=True)
def fresh_search_memo():
    """Start each test with an empty `search_T` memo, so that a test that
    patches a candidate stream, `least_squares`, `verify_modular` or a
    restart constant sees a fresh search."""
    modular._searched.clear()
