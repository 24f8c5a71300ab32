"""Output comparison rules shared by the workloads' checks."""

from __future__ import annotations

import math
import re
from typing import List, Tuple

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _split(cell: str) -> Tuple[str, List[str]]:
    """(the cell with numbers masked, its number tokens)."""
    return _NUMBER.sub("#", cell), _NUMBER.findall(cell)


def cells_match(got: str, want: str) -> bool:
    """A formatted table cell equals its reference.

    Text and integers must be identical. A decimal may differ by one
    unit of its last printed digit, which a change that only reorders
    a float summation can flip; it can never hide a real change larger
    than the printed precision.
    """
    if got == want:
        return True
    got_text, got_nums = _split(got)
    want_text, want_nums = _split(want)
    if got_text != want_text or len(got_nums) != len(want_nums):
        return False
    for a, b in zip(got_nums, want_nums):
        if a == b:
            continue
        if "." not in b or "e" in b.lower() or "." not in a:
            return False
        decimals = len(b.split(".", 1)[1])
        if len(a.split(".", 1)[1]) != decimals:
            return False
        if abs(float(a) - float(b)) > 10.0 ** -decimals * (1.0 + 1e-9):
            return False
    return True


def close(got: float, want: float, rel_tol: float) -> bool:
    """Floats equal within ``rel_tol`` (exact zero matches only zero)."""
    return math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0)
