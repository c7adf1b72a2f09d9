"""Settings shared by every test module."""

import pytest

# (module file, test name) of tests too slow for an edit-and-test loop;
# ``pytest -m "not slow"`` leaves them out.
SLOW = {("test_acceptance.py", "test_08_end_to_end_ordering")}


def pytest_collection_modifyitems(items):
    for item in items:
        if (item.path.name, item.name) in SLOW:
            item.add_marker(pytest.mark.slow)
