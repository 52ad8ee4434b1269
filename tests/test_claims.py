"""The claim table behind ``cesrm verify-paper``: its contract, the
verdict and exit-code logic on stub claims, and (slow) the scorecard
itself, which must hold and must match EXPERIMENTS.md's generated tables."""

import re
from pathlib import Path

import pytest

from repro.harness import claims, experiments
from repro.harness.cli import main

EXPERIMENTS_MD = Path(__file__).parent.parent / "EXPERIMENTS.md"
BLOCK = re.compile(r"<!-- claims:(\w+) -->\n(.*?)\n<!-- /claims -->", re.S)


def known_deviations() -> set[str]:
    section = EXPERIMENTS_MD.read_text().split("## Known deviations", 1)[1]
    return set(re.findall(r"^\d+\. \*\*(.+?)\.\*\*", section, re.M))


class TestContract:
    def test_ids_unique(self):
        ids = [claim.id for claim in claims.CLAIMS]
        assert len(ids) == len(set(ids))

    def test_rows_are_well_formed(self):
        sections = [key for key, _ in claims.SECTIONS]
        assert {claim.section for claim in claims.CLAIMS} == set(sections)
        for claim in claims.CLAIMS:
            assert callable(getattr(experiments, claim.experiment)), claim.id
            claims.holds(claim.band, 0.0)  # the band parses

    def test_every_waiver_names_a_known_deviation(self):
        waivers = {c.waiver for c in claims.CLAIMS if c.waiver is not None}
        assert waivers, "the REORDER-DELAY claim carries a waiver"
        assert waivers <= known_deviations()

    def test_select_by_id_or_prefix(self):
        selected = claims.select(["fig5a"])
        assert selected and all(c.id.startswith("fig5a.") for c in selected)
        assert [c.id for c in claims.select(["s34.eq1"])] == ["s34.eq1"]
        assert claims.select() == claims.CLAIMS
        with pytest.raises(ValueError, match="fig9"):
            claims.select(["fig9"])


@pytest.mark.parametrize(
    "band, value, expected",
    [
        ("> 15", 15.5, True),
        ("> 15", 15, False),
        ("== 0", 0, True),
        ("== 0", (0, 1), False),
        (">= 0.5, <= 2.8", (0.5, 2.8), True),
        (">= 0.5, <= 2.8", (0.4, 2.0), False),
        (">= 0.5, <= 2.8", [1.0, 2.9], False),
        ("< 1", [0.2, 0.9, 0.99], True),
        ("ascending", [1.0, 1.0, 2.0], True),
        ("ascending", [1.238, 1.288, 1.799, 1.727, 2.437], False),
    ],
)
def test_holds(band, value, expected):
    assert claims.holds(band, value) is expected


def stub(id_, measured, band, waiver=None):
    return claims.Claim(
        id_, "table1", "a stub", "stub_experiment", lambda _: measured, band, waiver=waiver
    )


@pytest.fixture
def stub_table(monkeypatch):
    """Swap the table for stub claims over a driver that simulates nothing."""
    monkeypatch.setattr(experiments, "stub_experiment", lambda ctx: None, raising=False)
    return lambda *rows: monkeypatch.setattr(claims, "CLAIMS", rows)


class TestVerdicts:
    def test_statuses(self):
        def status(measured, waiver=None):
            return claims.Verdict(stub("a.b", measured, "> 0", waiver), measured).status

        assert status(1) == "PASS"
        assert status(0) == "MISS"
        assert status(0, waiver="Some deviation") == "WAIVED"
        assert status(1, waiver="Some deviation") == "PASS"

    def test_rows(self):
        def row(measured, band, waiver=None):
            return claims.Verdict(stub("a.b", measured, band, waiver), measured).row()

        assert row(0, "> 0", waiver="x")[-1] == "WAIVED (x)"
        assert row((0.5, 2.0), ">= 0")[3] == "0.50–2.00"
        assert row([1.0, 2.0], "ascending")[3] == "1.00 → 2.00"

    def test_exit_zero_when_every_claim_passes_or_is_waived(self, stub_table, capsys):
        stub_table(stub("a.pass", 1, "> 0"), stub("a.waived", 0, "> 0", waiver="x"))
        assert main(["verify-paper", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "a.pass" in captured.out and "WAIVED (x)" in captured.out
        assert "2 claims: 1 PASS, 1 WAIVED, 0 MISS" in captured.err

    def test_exit_one_on_unwaived_miss(self, stub_table, capsys):
        stub_table(stub("a.pass", 1, "> 0"), stub("a.miss", 0, "> 0"))
        assert main(["verify-paper", "--no-cache"]) == 1
        assert "MISS" in capsys.readouterr().out

    def test_selection_narrows_the_run(self, stub_table, capsys):
        stub_table(stub("a.pass", 1, "> 0"), stub("b.miss", 0, "> 0"))
        assert main(["verify-paper", "a", "--no-cache"]) == 0
        assert "b.miss" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["verify-paper", "c", "--no-cache"])

    def test_markdown_sections(self, stub_table, capsys):
        stub_table(stub("a.pass", 1, "> 0"))
        main(["verify-paper", "--format", "markdown", "--no-cache"])
        out = capsys.readouterr().out
        assert out.startswith("### Table 1")
        assert "| a.pass | a stub | > 0 | 1.00 | PASS |" in out


@pytest.mark.slow
def test_scorecard_holds_and_matches_experiments_md():
    """The whole table at the default replay length: no un-waived miss,
    and EXPERIMENTS.md's generated blocks are exactly the markdown
    rendering."""
    verdicts = claims.scorecard(experiments.ExperimentContext())
    missed = [v.row() for v in verdicts if v.status == "MISS"]
    assert not missed, missed
    blocks = dict(BLOCK.findall(EXPERIMENTS_MD.read_text()))
    assert set(blocks) == {key for key, _ in claims.SECTIONS}
    generated = "\n\n".join(blocks[key] for key, _ in claims.SECTIONS)
    assert generated == claims.render(verdicts, "markdown")
