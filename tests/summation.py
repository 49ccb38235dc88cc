"""Float summation strategies shared by the bit-identity oracle tests.

Python 3.12 made the built-in ``sum`` of floats compensated (Neumaier
summation), so code that totals floats with ``sum`` can round differently
on 3.12 than on earlier interpreters.  An oracle that claims bit-identity
for such code runs under both: this interpreter's ``sum`` and an emulation
of 3.12's, by patching the module's ``total`` helper — and, for batched
code, the row-wise ``total_rows`` kernel that rounds the same way.
"""

import math
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.core.numeric import compensated_total_rows, total, total_rows


def compensated_total(values):
    """``sum`` as Python 3.12 computes it for floats (Neumaier summation)."""
    result = 0.0
    compensation = 0.0
    for value in values:
        value = float(value)
        step = result + value
        if abs(result) >= abs(value):
            compensation += (result - step) + value
        else:
            compensation += (value - step) + result
        result = step
    if compensation and math.isfinite(compensation):
        result += compensation
    return result


def loop_sequential_total_rows(values, axis=-1):
    """Row totals as the plain ``sum``: one vectorised add per position.

    The loop kernel ``numeric.sequential_total_rows`` replaced; kept as its
    reference.
    """
    summands = np.moveaxis(np.asarray(values, dtype=np.float64), axis, 0)
    result = np.zeros(summands.shape[1:])
    for summand in summands:
        result = result + summand
    return result


def loop_compensated_total_rows(values, axis=-1):
    """Row totals as the compensated ``sum`` of Python 3.12, one position at
    a time.

    The loop kernel ``numeric.compensated_total_rows`` replaced; kept as
    its reference.
    """
    summands = np.moveaxis(np.asarray(values, dtype=np.float64), axis, 0)
    result = np.zeros(summands.shape[1:])
    compensation = np.zeros(summands.shape[1:])
    with np.errstate(invalid="ignore"):
        for summand in summands:
            step = result + summand
            compensation = compensation + np.where(
                np.abs(result) >= np.abs(summand),
                (result - step) + summand,
                (summand - step) + result,
            )
            result = step
    return np.where(
        (compensation != 0.0) & np.isfinite(compensation),
        result + compensation,
        result,
    )


#: Both summation strategies an oracle must hold under: this interpreter's
#: ``sum`` and the compensated one of Python 3.12.
SUMMATIONS = [
    pytest.param(total, id="builtin-sum"),
    pytest.param(compensated_total, id="compensated-sum"),
]

#: The row-wise kernel that rounds as each entry of ``SUMMATIONS`` does.
ROW_KERNELS = {total: total_rows, compensated_total: compensated_total_rows}


@contextmanager
def summation_patched(summation, *modules):
    """Patch ``total`` and ``total_rows``, each where present, in each module.

    ``summation`` is an entry of ``SUMMATIONS``; the row kernel patched
    alongside it is its ``ROW_KERNELS`` partner, so scalar and batched code
    round alike.
    """
    with ExitStack() as stack:
        for module in modules:
            if hasattr(module, "total"):
                stack.enter_context(mock.patch.object(module, "total", summation))
            if hasattr(module, "total_rows"):
                stack.enter_context(
                    mock.patch.object(module, "total_rows", ROW_KERNELS[summation])
                )
        yield
