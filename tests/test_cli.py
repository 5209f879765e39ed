"""Command-line contract tests.

Everything runs in-process through main(argv) so exit codes and output
bytes are observable directly; one test drives the installed console
script end to end for the packaging path.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from split244 import oracle
from split244.cli import main
from split244.errors import NonConvergence

ANCHOR = ["analyze", "--a", "1", "--b", "1", "--c", "1"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse usage failures leave through exit(); same status
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    return code, json.loads(out), err


def run_lines(argv):
    code, out, err = run(argv)
    return code, [json.loads(line) for line in out.splitlines() if line], err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_coefficient_route():
    code, d, _ = run_json(ANCHOR)
    assert code == 0
    assert set(d) == {
        "aut", "i", "input", "jE", "jpair", "locus", "s", "uv", "warnings"
    }
    assert d["s"] == {"s2": "1", "s3": "2", "s4": "2"}
    assert d["aut"] == "Z2^3"
    assert d["jE"] == "2048"
    assert d["uv"]["u"] == "9" and d["uv"]["v"] == "-754/5"
    assert d["warnings"] == []


def test_analyze_radical_j_pair():
    _, d, _ = run_json(ANCHOR)
    jp = d["jpair"]
    assert jp["equal"] is False
    assert jp["j1"]["rat"] == "32768/5"
    assert jp["j1"]["coeff"] == "2/5"
    assert jp["j1"]["radicand"] == "268435081"
    assert jp["j2"]["coeff"] == "-2/5"


def test_analyze_invariant_route_agrees():
    _, via_abc, _ = run_json(ANCHOR)
    code, via_s, _ = run_json(["analyze", "--s2", "1", "--s3", "2", "--s4", "2"])
    assert code == 0
    for key in ("s", "aut", "jE", "uv", "jpair", "locus", "i"):
        assert via_s[key] == via_abc[key]


def test_analyze_point_without_lift_reports_gap():
    code, d, _ = run_json(["analyze", "--s2", "1", "--s3", "0", "--s4", "-2"])
    assert code == 0
    assert d["aut"] == "Z2xZ4"
    assert "lift" in d["uv"]["unavailable"]


def test_analyze_partial_input_is_usage_error():
    code, out, err = run(["analyze", "--a", "1", "--c", "1"])
    assert code == 1
    assert "need all of" in err


def test_analyze_mixed_input_is_usage_error():
    code, _, err = run(["analyze", "--a", "1", "--b", "1", "--c", "1", "--s2", "3"])
    assert code == 1


def test_analyze_singular_curve_is_domain_error():
    code, d, _ = run_json(["analyze", "--a", "1", "--b", "0", "--c", "1"])
    assert code == 2
    assert d["error"]["type"] == "SingularCurve"
    assert "repeated" in d["error"]["message"]


def test_no_command_is_usage_error():
    code, _, err = run([])
    assert code == 1


def test_unknown_flag_is_usage_error():
    code, _, err = run(ANCHOR + ["--wat"])
    assert code == 1
    assert "unrecognized" in err


def test_analyze_timings_flag():
    code, d, _ = run_json(ANCHOR + ["--timings"])
    assert code == 0
    assert "total_s" in d["timings"]


def test_analyze_pretty_is_not_json():
    code, out, _ = run(ANCHOR + ["--pretty"])
    assert code == 0
    assert not out.lstrip().startswith("{")
    assert out.splitlines()[0] == "aut: Z2^3"


def test_analyze_output_is_deterministic():
    _, first, _ = run(ANCHOR)
    _, second, _ = run(ANCHOR)
    assert first == second


def test_precision_floor_flag():
    code, _, err = run(ANCHOR + ["--precision-bits", "32"])
    assert code == 1
    assert "64 bits" in err


def test_precision_floor_env(monkeypatch):
    monkeypatch.setenv("SPLIT244_PRECISION_BITS", "32")
    code, _, err = run(ANCHOR)
    assert code == 1
    assert "64 bits" in err


# ---------------------------------------------------------------------------
# family

G1_WINDOW = [
    "family", "--component", "g1",
    "--s2-min", "25/2", "--s2-max", "51/4", "--samples", "2", "--seed", "0",
]


def test_family_rows_have_uniform_shape():
    code, rows, _ = run_lines(G1_WINDOW)
    assert code == 0
    assert [r["index"] for r in rows] == list(range(len(rows)))
    for r in rows:
        assert r["component"] == "g1"
        assert {"index", "component", "s2", "s3", "s4", "verdict"} <= set(r)


def test_family_narrow_window_pins_the_fiber():
    # the s2 step is 1/12 of the window, so a window inside one unit
    # keeps every sample at the left endpoint
    _, rows, _ = run_lines(G1_WINDOW)
    assert rows
    assert all(r["s2"] == "25/2" for r in rows)
    assert all(r["s4"] == "625/2" for r in rows)


def test_family_fiber_carries_both_kinds_of_branch():
    _, rows, _ = run_lines(G1_WINDOW)
    sharp = [r for r in rows if r["s3"] == "125.0"]
    assert sharp and all(r["verdict"] == "isomorphic" for r in sharp)
    assert sharp[0]["j1"] == "8000.0" and sharp[0]["j2"] == "8000.0"
    assert any(r["verdict"] == "distinct" for r in rows)


def test_family_singular_branch_detected():
    # one branch of this component runs inside the discriminant locus;
    # the fiber there is flagged instead of analyzed
    code, rows, _ = run_lines(
        ["family", "--component", "g2", "--s2-min", "1", "--s2-max", "5/4",
         "--samples", "1", "--seed", "0"]
    )
    assert code == 0
    flagged = [r for r in rows if r["verdict"] == "singular"]
    assert [r["s3"] for r in flagged] == ["-33.0"]
    assert all("j1" not in r for r in flagged)


def test_family_isomorphic_branch_detected():
    code, rows, _ = run_lines(
        ["family", "--component", "g4", "--s2-min", "4", "--s2-max", "17/4",
         "--samples", "1", "--seed", "0"]
    )
    assert code == 0
    assert rows[0]["s3"] == "-19.208571428571429"
    assert rows[0]["verdict"] == "isomorphic"
    assert rows[0]["j1"] == rows[0]["j2"]


G5_FIBER = [
    "family", "--component", "g5",
    "--s2-min", "-10", "--s2-max", "-19/2", "--samples", "1",
]


def test_family_clustered_fiber_keeps_every_branch():
    # F1's roots in s3 over the s4 ~ -558.15 branch are clustered; that
    # branch used to be dropped on NonConvergence
    code, rows, err = run_lines(G5_FIBER)
    assert code == 0 and err == ""
    branches = {r["s4"][:8] for r in rows}
    assert "-558.150" in branches
    assert len(branches) == 4


@pytest.mark.parametrize(
    "argv, fiber, count, passed",
    [
        # rational s4 = 625/2: every root solve is an F1 solve
        (G1_WINDOW, "s2=25/2 s4=625/2:", 2, 0),
        # irrational s4: the component's own s4 solve is let through
        (G5_FIBER, "s2=-10 s4=", 4, 1),
    ],
    ids=["rational-s4", "mpmath-s4"],
)
def test_family_logs_each_skipped_fiber(monkeypatch, argv, fiber, count, passed):
    # a fiber whose F1 solve fails gives no row on stdout and one line on
    # stderr with (s2, s4) and the reason
    solve = oracle.polynomial_roots
    calls = []

    def failing(coeffs, precision=None):
        calls.append(coeffs)
        if len(calls) <= passed:
            return solve(coeffs, precision)
        raise NonConvergence("forced")

    monkeypatch.setattr(oracle, "polynomial_roots", failing)
    code, out, err = run(argv)
    assert code == 0 and out == ""
    lines = err.splitlines()
    assert len(lines) == count
    for line in lines:
        assert line.startswith("split244: family: skipped fiber " + fiber)
        assert line.endswith(": NonConvergence: forced")


def test_family_empty_range_is_usage_error():
    code, _, err = run(
        ["family", "--component", "g1", "--s2-min", "3", "--s2-max", "3"]
    )
    assert code == 1
    assert "empty" in err


def test_family_output_is_deterministic():
    _, first, _ = run(G1_WINDOW)
    _, second, _ = run(G1_WINDOW)
    assert first == second


# ---------------------------------------------------------------------------
# verify


def test_verify_anchor_suite_passes():
    code, d, _ = run_json(["verify", "--suite", "paper-anchors"])
    assert code == 0
    assert d["failures"] == 0
    assert len(d["results"]) == 5
    assert all(r["passed"] for r in d["results"])
    assert "j_pair_diagnostic" in d["informational"]


def test_verify_cross_validation_passes():
    code, d, _ = run_json(["verify", "--suite", "cross-validation", "--samples", "15"])
    assert code == 0
    assert d["failures"] == 0
    assert [r["name"] for r in d["results"]] == [
        "je-vs-quartic", "igusa-vs-closed-form"
    ]


def test_verify_discriminants_reports_known_failure():
    # the square identity fails off the anchor; the suite says so and
    # exits 3 while the corrected identity passes alongside
    code, d, _ = run_json(["verify", "--suite", "discriminants", "--samples", "5"])
    assert code == 3
    assert d["failures"] == 1
    by_name = {r["name"]: r for r in d["results"]}
    assert by_name["anchor-identity"]["passed"]
    assert not by_name["square-identity"]["passed"]
    assert by_name["scaled-square-identity"]["passed"]


# ---------------------------------------------------------------------------
# oracle passthrough


def test_oracle_uv_round_trip():
    code, d, _ = run_json(["oracle", "uv", "--u", "3", "--v", "7"])
    assert code == 0
    assert d["u"] == "3.0" and d["v"] == "7.0"
    assert d["residual"] < 1e-20


def test_oracle_negative_rational_values():
    code, d, _ = run_json(["oracle", "uv", "--u", "9", "--v", "-754/5"])
    assert code == 0
    assert d["u"] == "9.0" and d["v"] == "-150.8"


def test_oracle_js_from_curve_coefficients():
    code, d, _ = run_json(["oracle", "js", "--a", "1", "--b", "1", "--c", "1"])
    assert code == 0
    assert d == {"j1": "2048.0", "j2": "11059.2"}


def test_oracle_igusa_from_curve_coefficients():
    code, d, _ = run_json(["oracle", "igusa", "--a", "1", "--b", "1", "--c", "1"])
    assert code == 0
    assert d["i1"] == "-9.6" and d["i2"] == "86.4" and d["i3"] == "0.0025"
    assert d["J2"] == "3.75"


def test_oracle_involution_report():
    code, d, _ = run_json(["oracle", "involution", "--coeffs", "0,1,1,1,1,1"])
    assert code == 0
    assert d["accepted"] is True
    assert d["best_residual"] == 0.0
    assert d["witness"]["pairing"] == [[0, 1], [2, 5], [3, 4]]


def test_oracle_missing_involution_is_domain_error():
    code, d, _ = run_json(["oracle", "normal-form", "--coeffs", "1,2,3,4,5,6,7"])
    assert code == 2
    assert d["error"]["type"] == "NoInvolution"


def test_oracle_wrong_degree_is_domain_error():
    code, d, _ = run_json(["oracle", "roots", "--coeffs", "1,-2,1"])
    assert code == 2
    assert "degree 5 or 6" in d["error"]["message"]


def test_oracle_without_input_is_usage_error():
    code, _, err = run(["oracle", "roots"])
    assert code == 1
    assert "--coeffs" in err


def test_oracle_roots_listing():
    code, d, _ = run_json(["oracle", "roots", "--coeffs", "0,1,1,1,1,1"])
    assert code == 0
    assert len(d) == 5
    assert all(set(r) == {"re", "im", "residual", "condition"} for r in d)


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "split244"] + ANCHOR,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert d["jE"] == "2048"
