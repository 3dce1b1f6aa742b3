"""Fixtures shared by every test module."""

import gc

import pytest

from schemekit import modular


@pytest.fixture(autouse=True)
def fresh_search_memo():
    """Start each test with an empty `search_T` memo, so that a test that
    patches a candidate stream, `least_squares`, `verify_modular` or a
    restart constant sees a fresh search."""
    modular._search.cache_clear()


@pytest.fixture
def spy_product_dtypes(monkeypatch):
    """spy(module): the list, growing while the test runs, of the dtypes
    of the parts of each `exact.gauss_product` that module calls."""
    def spy_on(module):
        seen = []
        product = module.gauss_product

        def spy(*args):
            nums = product(*args)
            seen.extend(x.dtype.name for x in nums if x is not None)
            return nums

        monkeypatch.setattr(module, "gauss_product", spy)
        return seen

    return spy_on


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that ends with the cyclic collector off or with objects
    frozen, as an in-process call of `cli.main()` would leave it, and
    restore the collector so later tests run with it."""
    yield
    leaked = not gc.isenabled(), gc.get_freeze_count()
    gc.enable()
    gc.unfreeze()
    if any(leaked):
        pytest.fail("test left the collector disabled=%s, frozen=%d"
                    % leaked)
