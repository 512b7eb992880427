"""Determinants and minors of matrix stacks by shared cofactor expansion.

One kernel serves the TWIST_D minors of the holonomy and the step-matrix
determinants that pin the last exponent of the spectrum estimator.  It works
on a (d, d, n) entry layout, contiguous from ``_entries`` or a transposed
view of the stack, so every term is one vectorized operation over the whole
stack.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def _entries(stack):
    """The (d, d, n) contiguous entry layout of an (n, d, d) stack of matrices."""
    return np.ascontiguousarray(stack.transpose(1, 2, 0))


def _max_row_norms(entries):
    """Largest Euclidean norm of each row over all points of a (d, d, n) entry layout.

    Their product over rows I bounds every minor on rows I (Hadamard's
    inequality): the scale a minor or determinant is judged zero against.
    """
    return np.sqrt((entries * entries).sum(axis=1)).max(axis=1)


def _minors(entries, rows, cols):
    """One minor (0-based rows and cols) at every point of a (d, d, n) entry layout.

    A 1x1 minor is the entry and a 2x2 minor a00 a11 - a01 a10.  A larger
    one is the cofactor expansion along its first row, alternating signs,
    summed left to right.  The minors of the trailing rows on every column
    subset are computed once, from the last two rows up, so a k x k minor
    costs about k 2^k array operations, not k!, and has the bits of the
    plain recursive expansion.
    """
    if len(rows) == 1:
        return entries[rows[0], cols[0]]
    top, bottom = entries[rows[-2]], entries[rows[-1]]
    below = {(a, b): top[a] * bottom[b] - top[b] * bottom[a]
             for a, b in combinations(cols, 2)}
    for i in range(len(rows) - 3, -1, -1):
        row = entries[rows[i]]
        level = {}
        for subset in combinations(cols, len(rows) - i):
            total = row[subset[0]] * below[subset[1:]]
            for j in range(1, len(subset)):
                term = row[subset[j]] * below[subset[:j] + subset[j + 1:]]
                if j % 2:
                    total -= term
                else:
                    total += term
            level[subset] = total
        below = level
    return below[tuple(cols)]
