"""The run-axis contract, checked once for every *declared* axis.

An axis is a dataclass field made by :func:`repro.harness.config.axis`;
every row below is parametrised over what the declarations say, so a new
axis is covered the moment it is declared and no test body names one.
The two tests that do name axes are pins: the declared set itself, and
the literal wire keys a refactor of the folding code must not move.
"""

import re
import sqlite3

import pytest

from repro.exec.jobs import JOB_AXES, RUN_AXES, RunJob
from repro.exec.summary import config_from_dict, config_to_dict
from repro.faults import FaultPlan, NodeCrash
from repro.harness.cli import build_parser
from repro.harness.config import CONFIG_AXES, SimulationConfig
from repro.sweep import SweepError, SweepStore, compile_sweep
from repro.sweep.spec import AXES
from repro.sweep.store import DIMENSIONS

BASE = dict(trace="WRN951113", protocol="cesrm", trace_seed=0, trace_max_packets=300)
CONFIG = SimulationConfig(seed=0, max_packets=300)
MALFORMED = "::no-such-value::"

ids = pytest.mark.parametrize("axis", RUN_AXES, ids=lambda a: a.name)
dimensions = pytest.mark.parametrize(
    "axis", [a for a in RUN_AXES if a.dimension], ids=lambda a: a.name
)
flags = pytest.mark.parametrize(
    "axis", [a for a in RUN_AXES if a.flag_help], ids=lambda a: a.name
)


def sample(axis):
    """A valid non-default value, from the declaration alone: the other
    boolean, another choice, or the example the flag's help promises."""
    if isinstance(axis.default, bool):
        return not axis.default
    if axis.choices is not None:
        return next(c for c in axis.choices if c != axis.default)
    example = re.search(r"e\.g\. (\S+)", axis.flag_help or "")
    assert example, f"axis {axis.name!r} needs an 'e.g. <value>' in its flag_help"
    return example.group(1)


def job_with(axis, value) -> RunJob:
    if axis in JOB_AXES:
        return RunJob(config=CONFIG, **BASE, **{axis.name: value})
    return RunJob(config=CONFIG.with_(**{axis.name: value}), **BASE)


def home_dict(axis, payload: dict) -> dict:
    """The part of a ``RunJob.to_dict`` payload that holds ``axis``."""
    return payload if axis in JOB_AXES else payload["config"]


def value_of(axis, job: RunJob):
    return getattr(job if axis in JOB_AXES else job.config, axis.name)


@ids
def test_default_is_omitted_and_key_is_axis_free(axis):
    job = job_with(axis, axis.default)
    assert axis.name not in home_dict(axis, job.to_dict())
    assert job.key() == RunJob(config=CONFIG, **BASE).key()


@ids
def test_non_default_folds_in_and_round_trips(axis):
    job = job_with(axis, sample(axis))
    payload = job.to_dict()
    assert home_dict(axis, payload)[axis.name] == sample(axis)
    assert job.key() != RunJob(config=CONFIG, **BASE).key()
    assert RunJob.from_dict(payload) == job
    assert config_from_dict(config_to_dict(job.config)) == job.config
    assert f"{axis.name}={sample(axis)}" in job.describe()


@ids
def test_missing_key_decodes_to_default(axis):
    payload = job_with(axis, sample(axis)).to_dict()
    del home_dict(axis, payload)[axis.name]
    assert value_of(axis, RunJob.from_dict(payload)) == axis.default


@ids
def test_malformed_value_fails_at_construction(axis):
    if axis.compile is None and axis.choices is None:
        pytest.skip("an unconstrained axis has no malformed value")
    with pytest.raises(ValueError):
        job_with(axis, MALFORMED)


@dimensions
def test_dimension_is_a_grid_axis_and_a_store_column(axis):
    point = {"protocol": ["cesrm"], "trace": ["WRN950919"]}
    spec = compile_sweep({"grid": {**point, axis.name: [sample(axis)]}})
    assert value_of(axis, spec.cases[0].job) == sample(axis)
    assert spec.cases[0].axes()[axis.name] == sample(axis)
    with pytest.raises(SweepError):
        compile_sweep({"grid": {**point, "params": {axis.name: [sample(axis)]}}})
    with pytest.raises(SweepError):
        compile_sweep({"grid": {**point, axis.name: [MALFORMED]}})
    assert axis.name in AXES and axis.name in DIMENSIONS


@dimensions
def test_dimension_column_is_migrated_onto_an_older_store(axis, tmp_path):
    path = tmp_path / "sweeps.sqlite"
    SweepStore(path).close()
    conn = sqlite3.connect(path)
    conn.execute("DROP INDEX runs_by_dims")  # the store re-creates it
    conn.execute(f"ALTER TABLE runs DROP COLUMN {axis.name}")
    conn.execute(
        "INSERT INTO runs (sweep_digest, job_key, protocol, trace, seed, "
        "status, cached, attempts, ingested_at) "
        "VALUES ('d0', 'k0', 'cesrm', 'T', 0, 'ok', 0, 1, 0.0)"
    )
    conn.commit()
    conn.close()
    with SweepStore(path) as store:
        headers, rows = store.rows("d0")
        assert dict(zip(headers, rows[0]))[axis.name] == axis.default
        spec = compile_sweep(
            {
                "grid": {
                    "protocol": ["cesrm"],
                    "trace": ["WRN950919"],
                    axis.name: [sample(axis)],
                }
            }
        )
        digest = store.begin_sweep(spec)
        store.record(digest, spec.cases[0], None, cached=False, attempts=1, error="x")
        assert store.distinct(digest, axis.name) == [sample(axis)]


@flags
def test_flag_parses_and_validates(axis, capsys):
    flag = "--" + axis.name.replace("_", "-")
    parser = build_parser()
    assert getattr(parser.parse_args(["run"]), axis.name) == axis.default
    args = parser.parse_args(["run", flag, str(sample(axis))])
    assert getattr(args, axis.name) == sample(axis)
    with pytest.raises(SystemExit):
        parser.parse_args(["run", flag, MALFORMED])
    assert flag in capsys.readouterr().err


def test_declared_axes_are_exactly_these():
    assert {a.name for a in JOB_AXES} == {"workload", "churn"}
    assert {a.name for a in CONFIG_AXES} == {"cache", "prime_distances", "kernel"}
    # Same names, same order as before the axes were declared.
    assert AXES == (
        "protocol", "trace", "workload", "faults", "cache", "churn",
        "seed", "max_packets",
    )
    assert DIMENSIONS == AXES + ("params",)


def test_wire_keys_pinned():
    """``RunJob.key()`` of seven literal jobs, as every build since the
    axis existed has computed it."""
    pinned = {
        "5f5840c4d499246ff1ff34640e772e778a321593": RunJob(config=CONFIG, **BASE),
        "b3b5905a12adf3050dccb407d60e07b56de40736": RunJob(
            config=CONFIG, workload="zipf:alpha=1.1,objects=64", **BASE
        ),
        "a6a071ea80bed26724d16a916da7d96adcf064f6": RunJob(
            config=CONFIG, churn="churn:rate=0.5", **BASE
        ),
        "deb056cb15e3edd5f5b85877ef091163c8c2afbe": RunJob(
            config=CONFIG.with_(cache="lru:capacity=8"), **BASE
        ),
        "d1a2a3cc7ff8b1de3cfde7af5176896fa0940642": RunJob(
            config=CONFIG.with_(prime_distances=True), **BASE
        ),
        "b1c037c5b19ed16d4a083592c910b30775f74a0c": RunJob(
            config=CONFIG.with_(kernel="vector"), **BASE
        ),
        "30ee7fa9eba46bd5362f3f4f847dc8e165d751e8": RunJob(
            config=CONFIG,
            faults=FaultPlan(events=(NodeCrash(host="r1", at=2.0),)),
            **BASE,
        ),
    }
    assert {key: job.key() for key, job in pinned.items()} == {
        key: key for key in pinned
    }
