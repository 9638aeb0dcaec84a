import doctest

import pytest

from excedance import cli, exact, permutations, sequences, series


@pytest.mark.parametrize("module", [cli, exact, series, permutations, sequences],
                         ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, attempted = doctest.testmod(module)
    assert failures == 0
    assert attempted > 0
