"""Every elastic run under ``tests/elastic`` balances its ledger."""

import pytest

from tests.conftest import assert_ledger_balances, recording_elastic_runs


@pytest.fixture(autouse=True)
def balanced_ledgers():
    with recording_elastic_runs() as reports:
        yield reports
    for report in reports:
        assert_ledger_balances(report)
