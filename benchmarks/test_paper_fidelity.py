"""The paper's evaluation and our claims beyond it, one test per row.

Every row of :data:`repro.analysis.fidelity.ROWS` (Figs. 2/8/10-16,
Tables 3/5, §7.4, then the ablations, the CTS baseline, sensitivity, the
roofline and ECM models) is measured once per
session and must be inside its tolerance or carry the reason it is not —
at ``CALIBRATED_SCALE``: the notes and the deltas they account for are
calibrated there.  Run with ``-s`` for the rendered table (the block
EXPERIMENTS.md carries, which ``repro fidelity`` prints without pytest).
"""

import pytest

from benchmarks.conftest import banner
from repro.analysis.fidelity import ACCEPTED, CALIBRATED_SCALE, ROWS, fidelity_rows, render


@pytest.fixture(scope="module")
def judged():
    results = fidelity_rows(scale=CALIBRATED_SCALE)
    banner(f"Paper vs ours — every row (scale {CALIBRATED_SCALE:g})")
    print(render(results, CALIBRATED_SCALE))
    return {(result.row.artefact, result.row.quantity): result for result in results}


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"{row.artefact}: {row.quantity}")
def test_paper_fidelity(row, judged):
    result = judged[row.artefact, row.quantity]
    assert result.status in ACCEPTED, " | ".join(result.cells())
