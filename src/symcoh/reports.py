"""Small pass/fail report type shared by the check suites, and the symbol
suite's default seed, which the CLI reads without importing the suite."""

from __future__ import annotations

from collections import namedtuple

DEFAULT_SEED = 1729

CheckResult = namedtuple("CheckResult", "name passed details")
