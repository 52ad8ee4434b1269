"""Each spec-string run axis is validated at its home — ``RunJob``
(workload, churn) or ``SimulationConfig`` (cache) — and the layers above
surface that one error: ``compile_sweep`` as a ``SweepError`` naming the
point, the CLI as an argparse exit at parse time."""

import pytest

from repro.exec.jobs import RunJob
from repro.harness.cli import build_parser
from repro.harness.config import SimulationConfig
from repro.sweep import SweepError, compile_sweep

MALFORMED = {
    "workload": "zipf:alpha=not-a-number",
    "cache": "lru:capacity=-3",
    "churn": "churn:rate=fast",
}


def _construct(axis: str, spec: str) -> None:
    with pytest.raises(ValueError):
        if axis == "cache":
            SimulationConfig(cache=spec)
        else:
            RunJob("WRN951113", "cesrm", SimulationConfig(), **{axis: spec})


def _compile(axis: str, spec: str) -> None:
    case = {"protocol": "cesrm", "trace": "WRN951113", axis: spec}
    with pytest.raises(SweepError, match="point 0"):
        compile_sweep({"cases": [case]})


def _parse(axis: str, spec: str) -> None:
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", f"--{axis}", spec])
    assert exc.value.code == 2


@pytest.mark.parametrize("rejects", [_construct, _compile, _parse])
@pytest.mark.parametrize("axis", sorted(MALFORMED))
def test_malformed_spec_is_rejected_at_every_entry(axis, rejects):
    rejects(axis, MALFORMED[axis])
