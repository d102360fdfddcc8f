"""The pipeline's numbers against ``golden.json``, written by ``make_golden.py``.

Floats agree to RTOL relative, and a zero stays exactly zero, so a numpy or
BLAS update that moves the last bits passes while a changed formula does
not.  A change that moves outputs on purpose regenerates the file, and its
diff shows every moved number.
"""

import json

import pytest

from make_golden import GOLDEN, golden_numbers

RTOL = 1e-12
SECTIONS = list(json.loads(GOLDEN.read_text()))


@pytest.fixture(scope="module")
def numbers():
    # Through JSON, so tuples, numpy scalars and lists compare as the file's.
    return json.loads(json.dumps(golden_numbers(), allow_nan=False))


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r}"
        assert abs(got - want) <= RTOL * abs(want), \
            f"{where}: {got!r} against golden {want!r}"
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} against golden {want!r}"


def test_golden_file_has_every_section(numbers):
    assert sorted(numbers) == sorted(SECTIONS)


@pytest.mark.parametrize("section", SECTIONS)
def test_outputs_match_the_golden_numbers(numbers, section):
    _assert_close(numbers[section], json.loads(GOLDEN.read_text())[section],
                  section)
