"""Inputs for the reference tests of the summing helpers.

numpy may order a sum by the memory layout of its operand, so each
family is offered in several layouts.
"""

import numpy as np


def layouts(vs):
    """Copies of a (4, 4) family in C order, in Fortran order, as a
    transposed view and as a strided view of a larger array."""
    strided = np.zeros((8, 8), dtype=vs.dtype)[::2, ::2]
    strided[...] = vs
    return np.ascontiguousarray(vs), np.asfortranarray(vs), np.ascontiguousarray(vs.T).T, strided
