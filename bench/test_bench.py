"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench -q
"""

import itertools
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from split244 import oracle, subfields  # noqa: E402

FIRST = {"analyze_curves": 30, "uv_roundtrip": 3, "fiber_scan": 4}


def _first(name, seed):
    return list(itertools.islice(workloads.WORKLOADS[name].cases(seed), FIRST[name]))


@pytest.mark.parametrize("name", sorted(FIRST))
def test_same_seed_gives_identical_inputs(name):
    assert _first(name, 5) == _first(name, 5)
    assert _first(name, 5) != _first(name, 6)


class Corrupted:
    """A workload whose outputs are altered before they are checked."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt = inner, corrupt
        self.name, self.chunk, self.round_size = inner.name, inner.chunk, inner.round_size

    def call(self, case):
        return self.corrupt(self.inner.call(case))

    def check(self, case, output):
        return self.inner.check(case, output)


def _wrong_share(workload, cases):
    outcomes, _ = run.measure(workload, iter(cases), float("inf"))
    return run.tally(outcomes)["wrong_share"]


def _with(report, **changes):
    return {**report, **changes}


def test_correct_outputs_pass():
    analyze = workloads.WORKLOADS["analyze_curves"]
    assert _wrong_share(analyze, _first("analyze_curves", 3)[:9]) == 0


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: _with(r, jE=r["jE"] + 1),
        lambda r: _with(r, uv={"unavailable": "dropped"}),
        lambda r: _with(r, jpair=subfields.j12_roots(1, 2)) if "u" in r["uv"] else _with(r, jE=0),
    ],
    ids=["jE", "uv", "jpair"],
)
def test_perturbed_analyze_result_counts_as_wrong(corrupt):
    analyze = Corrupted(workloads.WORKLOADS["analyze_curves"], corrupt)
    cases = [c for c in _first("analyze_curves", 3) if c.kind != "generic"][:3]
    assert _wrong_share(analyze, cases) == 1


def test_perturbed_uv_result_counts_as_wrong():
    def shift_j(out):
        nuv, (ja, jb), igusa = out
        return nuv, (ja * (1 + 1e-6), jb), igusa

    uv = Corrupted(workloads.WORKLOADS["uv_roundtrip"], shift_j)
    assert _wrong_share(uv, _first("uv_roundtrip", 3)[:1]) == 1


def test_perturbed_fiber_row_counts_as_wrong():
    def shift_s3(out):
        code, text = out
        first, *rest = text.splitlines()
        row = json.loads(first)
        row["s3"] = str(float(row["s3"]) * (1 + 1e-9))
        return code, "\n".join([json.dumps(row), *rest])

    fiber = workloads.WORKLOADS["fiber_scan"]
    case = workloads.fiber_case("g1", F(1))
    assert _wrong_share(fiber, [case]) == 0
    assert _wrong_share(Corrupted(fiber, shift_s3), [case]) == 1


def test_dropped_fiber_counts_as_failed():
    fiber = Corrupted(workloads.WORKLOADS["fiber_scan"], lambda out: (out[0], ""))
    case = workloads.fiber_case("g1", F(1))
    outcomes, _ = run.measure(fiber, iter([case]), float("inf"))
    assert run.tally(outcomes)["failed_share"] == 1


def test_tracer_records_spans_and_restores_the_library():
    original = subfields.full_pipeline
    analyze = workloads.WORKLOADS["analyze_curves"]
    tracer = tracing.Tracer()
    tracer.install(oracle.DEFAULT_INVOLUTION_TOL)
    try:
        run.measure(analyze, iter(_first("analyze_curves", 3)[:3]), float("inf"), tracer)
    finally:
        tracer.uninstall()
    assert subfields.full_pipeline is original
    layers = tracer.layer_metrics()
    assert layers["subfields.full_pipeline"]["calls"] == 3
    assert layers["exact.quadext"]["calls"] > 0  # reached through subfields' own import
    pipeline = layers["subfields.full_pipeline"]["busy_s"]
    assert 0 < layers["subfields.full_pipeline"]["self_s"] < pipeline
    # the workload calls make_genus3, then full_pipeline: the two root spans
    roots = pipeline + layers["curves.make_genus3"]["busy_s"]
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(roots)


def test_vanishing_j2_is_a_domain_outcome():
    uv = workloads.WORKLOADS["uv_roundtrip"]
    case = workloads.uv_case(F(-15), F(-21, 4))
    assert case.J2 == 0
    outcomes, _ = run.measure(uv, iter([case]), float("inf"))
    assert run.tally(outcomes) == run.tally([run.Outcome(case, 0.0, True, None)])
