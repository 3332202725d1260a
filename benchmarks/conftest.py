"""Shared benchmark fixtures.

The benches left here time what ``perfbench/`` does not: the design-choice
ablations and the parallel runner's fan-out. The paper's own quantities
are gated as declared bands by ``python -m repro check paper-*``.
"""

from __future__ import annotations

import pathlib

import pytest

REPORTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "reports"


@pytest.fixture(scope="session")
def emit_report():
    """Write one bench's rendered table to reports/<name>.txt."""
    REPORTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        path = REPORTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[report written to {path}]")

    return _emit
