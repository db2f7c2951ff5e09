"""Tests for :mod:`repro.internet`."""

from repro.internet.sites import SITES


def matrix_paths(matrix):
    """Every directed path of an ``RttMatrix``, in the order it builds them."""
    return [matrix.path(s, d) for s in SITES for d in SITES if s is not d]
