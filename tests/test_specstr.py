"""The shared spec-string grammar (`repro.harness.specstr`).

The wording pins matter: the grammar predates this module (it was the
workloads parser), and the workload surface's `WORKLOADS.resolve` must keep
raising `WorkloadError` with exactly the legacy messages now that it
delegates here.
"""

import pytest

from repro.harness.specstr import (
    POSITIONAL,
    SpecError,
    canonical_spec,
    coerce_float,
    coerce_int,
    consume,
    float_param,
    int_param,
    parse_spec,
    reject_unknown,
)
from repro.workloads import WORKLOADS, WorkloadError


class TestParseSpec:
    def test_bare_family(self):
        assert parse_spec("cbr") == ("cbr", {})

    def test_params(self):
        family, params = parse_spec("zipf:alpha=1.1,objects=500")
        assert family == "zipf"
        assert params == {"alpha": "1.1", "objects": "500"}

    def test_positional(self):
        family, params = parse_spec("trace:WRN951113")
        assert family == "trace"
        assert params == {POSITIONAL: "WRN951113"}

    def test_positional_mixes_with_keyed(self):
        _, params = parse_spec("trace:WRN951113,scale=2x")
        assert params == {POSITIONAL: "WRN951113", "scale": "2x"}

    def test_whitespace_tolerated(self):
        family, params = parse_spec("  zipf : alpha = 1.1 , objects = 500 ")
        assert family == "zipf"
        assert params == {"alpha": "1.1", "objects": "500"}

    @pytest.mark.parametrize(
        ("spec", "fragment"),
        [
            ("", "empty spec spec"),
            ("   ", "empty spec spec"),
            (":alpha=1", "has no family name"),
            ("zipf:", "trailing ':'"),
            ("zipf:alpha=1,,beta=2", "empty parameter"),
            ("zipf:a,b", "more than one positional"),
            ("zipf:alpha=", "malformed parameter"),
            ("zipf:=1.1", "malformed parameter"),
            ("zipf:alpha=1,alpha=2", "duplicate parameter 'alpha'"),
        ],
    )
    def test_grammar_errors(self, spec, fragment):
        with pytest.raises(SpecError, match=fragment):
            parse_spec(spec)

    def test_label_and_error_are_pluggable(self):
        class Boom(ValueError):
            pass

        with pytest.raises(Boom, match="empty gadget spec"):
            parse_spec("", label="gadget", error=Boom)

    def test_workload_parser_delegates_with_legacy_wording(self):
        """The workloads surface keeps its exact pre-extraction errors."""
        assert WORKLOADS.resolve("zipf:alpha=1.1") == (
            WORKLOADS.get("zipf"),
            {"alpha": "1.1"},
        )
        with pytest.raises(WorkloadError, match="empty workload spec"):
            WORKLOADS.resolve("")
        with pytest.raises(WorkloadError, match="has a trailing ':'"):
            WORKLOADS.resolve("zipf:")
        with pytest.raises(
            WorkloadError, match="duplicate parameter 'alpha'"
        ):
            WORKLOADS.resolve("zipf:alpha=1,alpha=2")


class TestCanonicalSpec:
    def test_sorted_keys(self):
        assert (
            canonical_spec("zipf", {"objects": "500", "alpha": "1.1"})
            == "zipf:alpha=1.1,objects=500"
        )

    def test_no_params(self):
        assert canonical_spec("unbounded", {}) == "unbounded"

    def test_positional_renders_bare_and_first(self):
        assert (
            canonical_spec("trace", {"scale": "2x", POSITIONAL: "WRN951113"})
            == "trace:WRN951113,scale=2x"
        )

    def test_round_trip(self):
        family, params = parse_spec("ttl:ttl=30s,capacity=8")
        assert parse_spec(canonical_spec(family, params)) == (family, params)


class TestCoercions:
    def test_consume_pops(self):
        params = {"a": "1", "b": "2"}
        assert consume(params, "a") == "1"
        assert consume(params, "missing", "dflt") == "dflt"
        assert params == {"b": "2"}

    def test_reject_unknown(self):
        reject_unknown({}, "cache policy 'lru'")
        with pytest.raises(
            SpecError, match=r"unknown parameter\(s\) \['z'\] for widget 'w'"
        ):
            reject_unknown({"z": "1"}, "widget 'w'")

    @pytest.mark.parametrize(
        ("raw", "expected"),
        [("1.5", 1.5), ("20x", 20.0), ("5s", 5.0), ("40ms", 0.04), ("1e2", 100.0)],
    )
    def test_float_suffixes(self, raw, expected):
        assert coerce_float(raw, "w", "k") == pytest.approx(expected)

    def test_float_errors(self):
        with pytest.raises(SpecError, match="is not a number"):
            coerce_float("fast", "w", "k")
        with pytest.raises(SpecError, match="is not finite"):
            coerce_float("inf", "w", "k")

    def test_float_param_default_and_minimum(self):
        params = {"p": "0.25"}
        assert float_param(params, "w", "p", 0.5) == 0.25
        assert params == {}
        assert float_param({}, "w", "p", 0.5) == 0.5
        with pytest.raises(SpecError, match="must be >= 0.5"):
            float_param({"p": "0.1"}, "w", "p", 0.5, minimum=0.5)

    def test_int_param(self):
        assert int_param({"capacity": "8"}, "w", "capacity", 16) == 8
        assert int_param({}, "w", "capacity", 16) == 16
        with pytest.raises(SpecError, match="is not an integer"):
            coerce_int("4.5", "w", "capacity")
        with pytest.raises(SpecError, match="must be >= 1"):
            int_param({"capacity": "0"}, "w", "capacity", 16)
