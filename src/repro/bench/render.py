"""Plain-text rendering of experiment results: tables and ASCII charts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    exp_id: str
    title: str
    columns: List[str]
    rows: List[Tuple]
    notes: List[str] = field(default_factory=list)
    paper_claim: str = ""

    def to_text(self) -> str:
        """Render the result as an aligned text table plus notes."""
        lines = [f"== {self.exp_id}: {self.title} =="]
        if self.paper_claim:
            lines.append(f"paper: {self.paper_claim}")
        lines.append(format_table(self.columns, self.rows))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def as_dict(self) -> Dict:
        """The result as a JSON-ready dict (rows become lists)."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def to_json(self, **extra) -> str:
        """JSON rendering; *extra* keys (workload, machine, ...) ride along."""
        import json

        payload = self.as_dict()
        payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True, default=str)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        if abs(value) >= 0.01:
            return f"{value:.3f}"
        return f"{value:.2e}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(columns: Sequence[str], rows: Sequence[Tuple]) -> str:
    """Align columns of a small result table."""
    table = [list(map(str, columns))] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(columns))]
    out = []
    for idx, row in enumerate(table):
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if idx == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)

