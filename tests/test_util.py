import random
import statistics
import sys

import pytest

from flowtune.util import pstdev

import oracle


def random_amount_lists(count: int) -> list:
    """Whole-number lists of 1-30 amounts, from 0-1 up to 150-digit amounts."""
    rng = random.Random(11)
    lists = []
    for _ in range(count):
        bound = rng.choice([2, 10, 100, 10**6, 2**53, 2**70, 10**150])
        lists.append([rng.randrange(bound) for _ in range(rng.randint(1, 30))])
    return lists


def test_pstdev_is_the_root_of_the_exact_variance():
    for amounts in random_amount_lists(3000) + [[7], [0, 0], [3, 3, 3], [2**53 + 1, 1]]:
        got = pstdev(amounts)
        assert type(got) is float and got == oracle.pstdev(amounts), amounts


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.pstdev rounds twice before 3.11")
def test_pstdev_equals_statistics_pstdev():
    for amounts in random_amount_lists(3000):
        assert pstdev(amounts) == statistics.pstdev(amounts), amounts


def test_pstdev_rounds_once_where_python_3_10_rounds_twice():
    # the variance is 104.04 exactly; 3.10's statistics.pstdev reads 10.200000000000001
    amounts = [18, 36, 14, 22, 29, 8, 7, 19, 38, 15]
    assert repr(pstdev(amounts)) == repr(oracle.pstdev(amounts)) == "10.2"
