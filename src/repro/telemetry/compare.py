"""Statistical A/B comparison of runs (the before/after tuning method).

Every intervention in §IV is judged by a before/after comparison of
telemetry; with noisy per-step data that judgement needs statistics,
not eyeballs.  :func:`compare_runs` tests each phase column of two
rank-step tables with a Mann–Whitney U test (no normality assumption —
comm times are heavy-tailed by construction) and reports effect sizes,
so a tuning change can be declared significant or noise.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from .columnar import ColumnTable
from .engine import materialize

__all__ = ["PhaseComparison", "RunComparison", "compare_runs"]


def _prep(source, columns: Sequence[str]) -> ColumnTable:
    """Materialize a comparison side, reading only the tested columns.

    In-memory tables pass through untouched (preserving this module's
    original error order: empty-table ValueError first, then KeyError
    per missing column inside the comparison loop); datasets decode just
    the phase columns via projection pushdown.
    """
    if isinstance(source, ColumnTable):
        return source
    return materialize(source, columns=columns)


@dataclasses.dataclass(frozen=True)
class PhaseComparison:
    """One phase column's A-vs-B statistics."""

    column: str
    mean_a: float
    mean_b: float
    p_value: float
    #: relative change of B vs A (negative = B faster)
    relative_change: float

    def significant(self, alpha: float = 0.01) -> bool:
        return self.p_value < alpha

    def row(self) -> str:
        star = "*" if self.significant() else " "
        return (
            f"{self.column:12s} {self.mean_a * 1e3:10.3f} ms -> "
            f"{self.mean_b * 1e3:10.3f} ms  ({self.relative_change:+7.1%}) "
            f"p={self.p_value:.2e}{star}"
        )


@dataclasses.dataclass
class RunComparison:
    """Full A/B comparison across phase columns."""

    label_a: str
    label_b: str
    phases: List[PhaseComparison]

    def improved(self, column: str, alpha: float = 0.01) -> bool:
        """B significantly faster than A on the given column."""
        for p in self.phases:
            if p.column == column:
                return p.significant(alpha) and p.relative_change < 0
        raise KeyError(f"no comparison for column {column!r}")

    def text(self) -> str:
        lines = [f"=== {self.label_a} vs {self.label_b} "
                 f"(* = significant at p<0.01) ==="]
        lines += [p.row() for p in self.phases]
        return "\n".join(lines)


def compare_runs(
    table_a,
    table_b,
    columns: Sequence[str] = ("compute_s", "comm_s", "sync_s"),
    label_a: str = "A",
    label_b: str = "B",
) -> RunComparison:
    """Mann–Whitney U comparison of phase columns between two runs.

    Either side may be a :class:`ColumnTable` or a
    :class:`~repro.telemetry.dataset.TelemetryDataset`.  Works on raw
    rank-step samples; the two runs need not have equal length.  Raises
    on missing columns or empty tables (a comparison of nothing is a
    bug, not a result).
    """
    table_a = _prep(table_a, columns)
    table_b = _prep(table_b, columns)
    if table_a.n_rows == 0 or table_b.n_rows == 0:
        raise ValueError("cannot compare empty telemetry tables")
    out: List[PhaseComparison] = []
    for col in columns:
        a = table_a[col].astype(np.float64)
        b = table_b[col].astype(np.float64)
        if np.allclose(a, a[0]) and np.allclose(b, b[0]) and a[0] == b[0]:
            p_value = 1.0
        else:
            # Imported here: scipy.stats costs ~0.5 s of import time that
            # every other telemetry user would otherwise pay.
            from scipy import stats

            p_value = float(stats.mannwhitneyu(a, b, alternative="two-sided").pvalue)
        mean_a = float(a.mean())
        mean_b = float(b.mean())
        rel = (mean_b - mean_a) / mean_a if mean_a != 0 else 0.0
        out.append(
            PhaseComparison(
                column=col,
                mean_a=mean_a,
                mean_b=mean_b,
                p_value=p_value,
                relative_change=rel,
            )
        )
    return RunComparison(label_a=label_a, label_b=label_b, phases=out)
