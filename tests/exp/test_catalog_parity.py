"""Full-size catalog parity: ``repro run <fig>`` prints the recorded tables.

The figures whose work is analytic tails and Random placements run here
at their catalog specs, serially, and every table they print must equal
the matching block of ``benchmarks/output/<fig>.txt`` byte for byte.
The reference files also hold ascii plots, which ``repro run`` does not
print; those blocks are skipped.
"""

import pathlib
import re

import pytest

from repro import cli

REFERENCES = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "output"

#: The x axis of an ascii plot.
PLOT_AXIS = re.compile(r"^\s*\+-{8,}\s*$", re.MULTILINE)


def blocks(text):
    return [b for b in re.split(r"\n\s*\n", text.strip("\n")) if b.strip()]


@pytest.fixture(autouse=True)
def _catalog_knobs(monkeypatch):
    for knob in ("REPRO_EFFORT", "REPRO_REPS", "REPRO_B_MAX", "REPRO_WORKERS"):
        monkeypatch.delenv(knob, raising=False)


@pytest.mark.parametrize(
    "figure", ["fig7", "fig8", "fig9a", "fig9b", "fig10", "appendix_a"]
)
def test_tables_match_reference(figure, capsys):
    assert cli.main(["run", figure, "--workers", "1", "--no-store"]) == 0
    printed = blocks(capsys.readouterr().out)
    reference = (REFERENCES / f"{figure}.txt").read_text(encoding="utf-8")
    expected = [b for b in blocks(reference) if not PLOT_AXIS.search(b)]
    assert printed == expected
