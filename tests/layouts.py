"""Inputs for the bit-for-bit reference tests of the summing helpers.

A reduction's order can depend on the memory layout of its operand, so
each family is offered in several layouts, with signed zeros that only a
byte comparison tells apart.
"""

import numpy as np


def layouts(vs):
    """Copies of a (4, 4) family in C order, in Fortran order, as a
    transposed view and as a strided view of a larger array."""
    strided = np.zeros((8, 8), dtype=vs.dtype)[::2, ::2]
    strided[...] = vs
    return np.ascontiguousarray(vs), np.asfortranarray(vs), np.ascontiguousarray(vs.T).T, strided


def signed_zero_families(n):
    """Random complex families with entries and whole rows of +0.0 and -0.0,
    after one whose column of -0.0 makes every row's product at (0, 1) a
    -0.0 that only a sum started from +0.0 turns into +0.0."""
    rng = np.random.default_rng(11)
    v = rng.random((4, 4)) + 1j * rng.random((4, 4)) + (0.5 + 0.5j)
    v[:, 0] = complex(-0.0, -0.0)
    out = [v]
    for _ in range(n):
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for part in (v.real, v.imag):
            pick = rng.random((4, 4))
            part[pick < 0.25] = 0.0
            part[pick > 0.75] = -0.0
        v[rng.integers(4)] = complex(-0.0, -0.0)
        v[rng.integers(4)] = 0.0
        out.append(v)
    return out
