"""Suite-wide time budget for the tier-1 tests.

Any test not marked ``slow`` whose call phase runs longer than
``TEST_BUDGET_S`` fails, so tier-1 wall time cannot grow unnoticed: a
test that needs longer belongs behind the ``slow`` marker (the dedicated
CI step), or the code it drives has a latency defect.
"""

import pytest

TEST_BUDGET_S = 10.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if (
        report.when == "call"
        and report.passed
        and report.duration > TEST_BUDGET_S
        and item.get_closest_marker("slow") is None
    ):
        report.outcome = "failed"
        report.longrepr = (
            f"{item.nodeid} took {report.duration:.1f}s, over the "
            f"{TEST_BUDGET_S:g}s tier-1 budget; mark it slow or make it faster"
        )
