"""A single gate's margin and truth table, checked by several tests."""

from smtl.tlg import gate_margins, row_sums


def gate_margin(gate):
    """Min over all input rows of |weighted sum + bias|."""
    return gate_margins([gate])[0]


def truth_table(gate):
    """Truth table as a tuple of 2^fan_in bits; input i is bit i (LSB first)."""
    return tuple(int(v) for v in row_sums([gate])[0] >= 0)
