"""Result containers and text rendering for experiment outputs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.common.tables import format_table


@dataclass
class ExperimentResult:
    """One regenerated table/figure, as rows of formatted cells."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: str = ""
    #: Set by a driver whose checks did not hold; the CLI then exits 1.
    failed: bool = False

    def to_text(self) -> str:
        """Render the result as a fixed-width table with notes."""
        text = format_table(
            self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}"
        )
        if self.notes:
            text += f"\nNote: {self.notes}"
        return text


def pct(value: float) -> str:
    """Format a ratio as a signed percent cell."""
    return f"{value:+.1%}"


def pct_abs(value: float) -> str:
    """Format a ratio as an unsigned percent cell."""
    return f"{value:.1%}"


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (experiments always have non-empty inputs)."""
    return sum(values) / len(values)


def mean_abs(values: Sequence[float]) -> float:
    """Mean of absolute values — the paper's 'average absolute error'."""
    return mean([abs(v) for v in values])
