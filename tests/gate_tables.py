"""A single gate's margin and truth table, checked by several tests."""

import numpy as np

from smtl.tlg import row_sums


def _row_sums(gate):
    return row_sums(np.array([gate.bias]), np.array([gate.weights]))[0]


def gate_margin(gate):
    """Min over all input rows of |weighted sum + bias|."""
    return int(np.abs(_row_sums(gate)).min())


def truth_table(gate):
    """Truth table as a tuple of 2^fan_in bits; input i is bit i (LSB first)."""
    return tuple(int(v) for v in _row_sums(gate) >= 0)
