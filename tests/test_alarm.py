"""Both suites run under the one per-test alarm (``tests/alarm.py``).

``pyproject.toml`` sets ``test_timeout_s`` for every pytest run from the
repository root; an option no conftest registers is only a
``PytestConfigWarning``, and its tests run with no limit.
"""

import benchmarks.conftest as benchmarks_conftest
import tests.conftest as tests_conftest
from tests import alarm


def test_each_suite_registers_the_option_and_the_fixture():
    for conftest in (tests_conftest, benchmarks_conftest):
        assert conftest._test_timeout is alarm._test_timeout
        assert conftest.add_timeout_option is alarm.add_timeout_option
        options = []
        conftest.pytest_addoption(_Parser(options))
        assert "test_timeout_s" in options


class _Parser:
    """What ``pytest_addoption`` asks of a parser, recorded."""

    def __init__(self, options):
        self.options = options

    def addini(self, name, *args, **kwargs):
        self.options.append(name)

    def addoption(self, *names, **kwargs):
        self.options.extend(names)
