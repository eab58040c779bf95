"""Rows of the normalized rate tables shared by the entropy and complexity
pipelines; a table is a plain list of rows along a window sequence."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RatePoint:
    """Window index, window size, bits, and bits per site."""

    index: int
    size: int
    bits: float
    rate: float
