"""Each golden eigendecomposition case of test_eigh_golden asserts the
property that makes it worth pinning, so a case cannot silently stop
exercising it.
"""

import pytest

from test_eigh_golden import CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_exercises_its_path(name):
    make, check = CASES[name]
    assert check(make())
