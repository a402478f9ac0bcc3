"""Generated workload inputs are bit-identical to the captured fixture.

``tests/golden/golden_inputs.json`` pins the rows (values and Python
types) of the benchmark's item lists, the paper's 2-minute workload, a
duration-jitter spec and two streamed replays; see ``golden_inputs.py``.
"""

from __future__ import annotations

import pytest

from golden_inputs import CASES, load_golden_inputs


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_rows_are_bit_identical(case):
    assert CASES[case]() == load_golden_inputs()[case]
