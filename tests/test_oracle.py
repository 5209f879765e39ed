"""Numeric layer tests.

Reference values come from three independent directions: mpmath's own
polyroots on the same inputs, hand-built curves whose involution and
normal form are known by construction (even sextics, shifted models),
and the exact resultant layer for the invariant cross-checks.
"""

import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from split244 import oracle
from split244.curves import Genus2Curve, UVPoint, genus2_from_uv
from split244.errors import NonConvergence
from split244.exact import UniPoly
from split244.invariants import DihedralPoint, absolute_invariants, dihedral_invariants
from split244.loci import F1_POLY
from split244.subfields import j12_quadratic

CAL_SEXTIC = [0, 1, 1, 1, 1, 1]


def _cal_curve():
    return Genus2Curve(UniPoly(CAL_SEXTIC))


# even model y^2 = x^6 + 2 x^4 + 3 x^2 + 1, x -> -x by construction
EVEN_SEXTIC = [1, 0, 3, 0, 2, 0, 1]
# the same curve after x -> x + 1; binomial expansion done by hand
SHIFTED_SEXTIC = [7, 20, 30, 28, 17, 6, 1]
# no involution candidate below 1e-2 (checked against the full 15-pairing scan)
PLAIN_SEXTIC = [1, 2, 3, 4, 5, 6, 7]


# ---------------------------------------------------------------------------
# precision configuration


def test_precision_default(monkeypatch):
    monkeypatch.delenv("SPLIT244_PRECISION_BITS", raising=False)
    assert oracle.precision_bits() == 128


def test_precision_env(monkeypatch):
    monkeypatch.setenv("SPLIT244_PRECISION_BITS", "200")
    assert oracle.precision_bits() == 200


def test_precision_override_beats_env(monkeypatch):
    monkeypatch.setenv("SPLIT244_PRECISION_BITS", "200")
    assert oracle.precision_bits(96) == 96


def test_precision_floor():
    with pytest.raises(ValueError):
        oracle.precision_bits(63)


def test_precision_floor_env(monkeypatch):
    monkeypatch.setenv("SPLIT244_PRECISION_BITS", "32")
    with pytest.raises(ValueError):
        oracle.precision_bits()


# ---------------------------------------------------------------------------
# root finding


def test_roots_of_x2_plus_1():
    rs = oracle.polynomial_roots([1, 0, 1])
    assert len(rs) == 2
    # deterministic order: sorted by (re, im)
    assert abs(rs[0] - mp.mpc(0, -1)) < 1e-30
    assert abs(rs[1] - mp.mpc(0, 1)) < 1e-30


def test_roots_of_x8_plus_1():
    rs = oracle.polynomial_roots([1] + [0] * 7 + [1])
    assert len(rs) == 8
    for r in rs:
        assert abs(abs(r) - 1) < 1e-30
        assert abs(r**8 + 1) < 1e-28


def test_zero_roots_split_off_exactly():
    rs = oracle.polynomial_roots([0, 0, 6, 1, 1])
    exact_zeros = [r for r in rs if r == 0]
    assert len(exact_zeros) == 2


def test_roots_match_mpmath_reference():
    rng = random.Random(20260822)
    for _ in range(4):
        cs = [rng.randint(-9, 9) for _ in range(6)] + [1]
        mine = oracle.polynomial_roots(cs)
        ref = mp.polyroots(
            [mp.mpf(c) for c in reversed(cs)], maxsteps=300, extraprec=100
        )
        ref = sorted(
            ref, key=lambda w: (round(float(w.real), 10), round(float(w.imag), 10))
        )
        assert len(mine) == len(ref)
        for x, y in zip(mine, ref):
            assert abs(x - y) < 1e-12


def test_roots_deterministic():
    a = oracle.polynomial_roots([3, 1, 4, 1, 5, 9, 2])
    b = oracle.polynomial_roots([3, 1, 4, 1, 5, 9, 2])
    assert all(x == y for x, y in zip(a, b))


def test_repeated_roots_cluster_with_huge_condition():
    # (x^2 - 1)^3: the iteration still lands on the two triple points,
    # but the per-root sensitivity blows up and says so
    rs = oracle.roots(UniPoly([-1, 0, 3, 0, -3, 0, 1]))
    assert len(rs) == 6
    near_plus = sum(1 for r in rs if abs(r.value - 1) < 1e-6)
    near_minus = sum(1 for r in rs if abs(r.value + 1) < 1e-6)
    assert (near_plus, near_minus) == (3, 3)
    assert all(r.condition > 1e6 for r in rs)


def test_sixfold_root_converges_with_huge_condition():
    # (x - 1)^6: no step-size rule settles on a sixfold root, the
    # backward-error rule does
    rs = oracle.roots(UniPoly([1, -6, 15, -20, 15, -6, 1]))
    assert len(rs) == 6
    assert all(abs(r.value - 1) < 1e-4 for r in rs)
    assert all(r.condition > 1e6 for r in rs)


def test_tiny_roots_keep_relative_accuracy():
    # x^6 = 10^-400: the roots have modulus 10^(-200/3), far below any
    # absolute step threshold of the working precision
    rs = oracle.polynomial_roots([-F(1, 10**400), 0, 0, 0, 0, 0, 1])
    assert len(rs) == 6
    with mp.workprec(256):
        modulus = mp.mpf(10) ** (mp.mpf(-200) / 3)
        for r in rs:
            assert abs(abs(r) / modulus - 1) < 1e-30
            assert abs(r**6 * mp.mpf(10) ** 400 - 1) < 1e-30


def test_clustered_f1_fiber_matches_mpmath():
    # F1 in s3 at (s2, s4) = (13/3, 3/4): roots with condition numbers
    # near 1e11
    f = F1_POLY.restrict(2, (F(13, 3), F(3, 4)))
    mine = oracle.polynomial_roots(f.coeffs)
    with mp.workprec(256):
        ref = mp.polyroots(
            [mp.mpf(c.numerator) / c.denominator for c in reversed(f.coeffs)],
            maxsteps=500,
            extraprec=512,
        )
    ref = sorted(
        ref, key=lambda w: (round(float(w.real), 10), round(float(w.imag), 10))
    )
    assert len(mine) == len(ref) == f.degree
    for x, y in zip(mine, ref):
        assert abs(x - y) < 1e-20 * (1 + abs(y))


def test_constant_rejected():
    with pytest.raises(NonConvergence):
        oracle.polynomial_roots([5])


def test_roots_certificates():
    rs = oracle.roots(UniPoly(CAL_SEXTIC))
    assert len(rs) == 5
    assert all(r.residual < 1e-30 for r in rs)
    assert all(r.condition < 1e3 for r in rs)
    j = rs[0].to_json()
    assert set(j) == {"re", "im", "residual", "condition"}


# ---------------------------------------------------------------------------
# involution detection


def test_reference_curve_involution_is_reciprocal_map():
    w = oracle.detect_involution(_cal_curve())
    assert w is not None
    assert w.residual < 1e-20
    # x -> 1/x up to scale: alpha = 0, beta = gamma
    assert abs(w.alpha) < 1e-20
    assert abs(w.beta / w.gamma - 1) < 1e-20
    assert w.pairing == ((0, 1), (2, 5), (3, 4))


def test_even_sextic_involution_is_negation():
    w = oracle.detect_involution(Genus2Curve(UniPoly(EVEN_SEXTIC)))
    assert w is not None
    assert w.residual < 1e-20
    assert w.gamma == 0
    assert abs(w.beta / w.alpha) < 1e-20
    assert abs(w.apply(mp.mpc(2)) + 2) < 1e-20


def test_witness_is_self_inverse():
    w = oracle.detect_involution(_cal_curve())
    for z in (mp.mpc(2, 1), mp.mpc(-3), mp.mpc("0.25", "-7")):
        assert abs(w.apply(w.apply(z)) - z) < 1e-18


def test_witness_permutes_roots():
    curve = _cal_curve()
    w = oracle.detect_involution(curve)
    rs = oracle.polynomial_roots(curve.sextic.coeffs)
    for i, j in w.pairing:
        image = w.apply(rs[i])
        if rs[i] == 0:
            # 0 maps to the root at infinity of the quintic model
            assert image is None
            continue
        assert min(abs(image - r) for r in rs) < 1e-12


def test_witness_infinity_handling():
    w = oracle.detect_involution(_cal_curve())
    # gamma != 0: infinity maps to the finite point alpha/gamma
    assert abs(w.apply(None)) < 1e-20


def test_pairing_partitions_six_slots():
    wit, best = oracle.best_involution_candidate(EVEN_SEXTIC)
    seen = sorted(k for pair in wit.pairing for k in pair)
    assert seen == [0, 1, 2, 3, 4, 5]
    assert best < 1e-20


def test_plain_sextic_has_no_involution():
    assert oracle.detect_involution(Genus2Curve(UniPoly(PLAIN_SEXTIC))) is None
    _, best = oracle.best_involution_candidate(PLAIN_SEXTIC)
    assert 1e-2 < best < 1e-1


def test_witness_json_shape():
    w = oracle.detect_involution(_cal_curve())
    j = w.to_json()
    assert set(j) == {"alpha", "beta", "gamma", "pairing", "residual"}
    assert j["pairing"] == [[0, 1], [2, 5], [3, 4]]


# ---------------------------------------------------------------------------
# normal form and the coordinate pair behind it


def test_even_sextic_normal_form_reads_off_coefficients():
    # y^2 = x^6 + A x^4 + B x^2 + 1 is already in normal position,
    # so the computed (A, B) must reproduce (2, 3)
    curve = Genus2Curve(UniPoly(EVEN_SEXTIC))
    nf = oracle.v4_normal_form(curve, oracle.detect_involution(curve))
    assert abs(nf.A - 2) < 1e-20
    assert abs(nf.B - 3) < 1e-20
    j = nf.to_json()
    assert set(j) == {"A", "B", "cubic", "quartic"}
    assert len(j["cubic"]) == 4 and len(j["quartic"]) == 5


def test_normal_form_rejects_foreign_witness():
    wit, _ = oracle.best_involution_candidate(PLAIN_SEXTIC)
    with pytest.raises(ValueError, match="residual"):
        oracle.v4_normal_form(_cal_curve(), wit)


def test_uv_reference_curve():
    uv = oracle.uv_numeric(_cal_curve())
    assert abs(uv.u - 9) < 1e-12
    assert abs(uv.v - F(-754, 5)) < 1e-12


def test_uv_is_model_independent():
    # same curve, two models: the even sextic and its shift by one
    a = oracle.uv_numeric(Genus2Curve(UniPoly(EVEN_SEXTIC)))
    b = oracle.uv_numeric(Genus2Curve(UniPoly(SHIFTED_SEXTIC)))
    assert abs(a.u - 6) < 1e-12 and abs(a.v - 35) < 1e-12
    assert abs(b.u - 6) < 1e-12 and abs(b.v - 35) < 1e-12


def test_uv_round_trip_through_curve_builder():
    for u, v in [(3, 7), (-2, 11), (F(1, 2), F(-5, 3))]:
        got = oracle.uv_numeric(genus2_from_uv(UVPoint(F(u), F(v))))
        assert abs(got.u - F(u)) < 1e-9
        assert abs(got.v - F(v)) < 1e-9


def test_uv_round_trip_u_zero():
    got = oracle.uv_numeric(genus2_from_uv(UVPoint(F(0), F(1))))
    assert abs(got.u) < 1e-9
    assert abs(got.v - 1) < 1e-9


def test_uv_refuses_plain_sextic():
    with pytest.raises(ValueError, match="no involution"):
        oracle.uv_numeric(Genus2Curve(UniPoly(PLAIN_SEXTIC)))


def test_uv_json_shape():
    j = oracle.uv_numeric(_cal_curve()).to_json()
    assert set(j) == {"u", "v", "residual"}


# ---------------------------------------------------------------------------
# subcover j-invariants


def _cal_js():
    curve = _cal_curve()
    return oracle.subcover_js(curve, oracle.detect_involution(curve))


def test_reference_curve_subcover_js():
    j1, j2 = _cal_js()
    assert abs(j1 - 2048) < 1e-9
    assert abs(j2 - F(55296, 5)) < 1e-8


def test_subcover_js_match_quadratic_coefficients():
    # the observed pair solves j^2 + B j + C with the B the exact layer
    # produces at (9, -754/5), but with the constant term carrying the
    # numerator cubed; the uncorrected table value is off by the square
    # of that numerator factor
    j1, j2 = _cal_js()
    u, v = F(9), F(-754, 5)
    b_coeff, c_printed = j12_quadratic(u, v)
    c_true = c_printed * (u * u + 9 * u - 3 * v) ** 2
    assert abs((j1 + j2) + b_coeff) < 1e-8
    assert abs(j1 * j2 - c_true) < 1e-4
    assert abs(j1 * j2 - c_printed) > 1


def test_subcover_js_sorted():
    j1, j2 = _cal_js()
    assert (j1.real, j1.imag) <= (j2.real, j2.imag)


def test_subcover_js_rejects_foreign_witness():
    wit, _ = oracle.best_involution_candidate(PLAIN_SEXTIC)
    with pytest.raises(ValueError, match="residual"):
        oracle.subcover_js(_cal_curve(), wit)


# ---------------------------------------------------------------------------
# absolute invariants from root differences


def test_igusa_reference_curve():
    ig = oracle.igusa_invariants(_cal_curve())
    with mp.workprec(200):
        assert abs(ig.i1 - mp.mpf(-48) / 5) < 1e-20
        assert abs(ig.i2 - mp.mpf(432) / 5) < 1e-20
        assert abs(ig.i3 - mp.mpf(1) / 400) < 1e-22


def test_igusa_weighted_values_reference_curve():
    ig = oracle.igusa_invariants(_cal_curve())
    with mp.workprec(200):
        assert abs(ig.J2 - mp.mpf(15) / 4) < 1e-20
        assert abs(ig.J10 - mp.mpf(125) / 4096) < 1e-22
    j = ig.to_json()
    assert set(j) == {"J2", "J4", "J6", "J10", "i1", "i2", "i3"}


def test_igusa_calibration_check_runs_clean():
    oracle.igusa_calibration_check()


def test_igusa_agrees_with_exact_layer():
    # root-difference route vs the closed forms on random octics
    rng = random.Random(20260823)
    done = 0
    while done < 5:
        a, b, c = (F(rng.randint(-40, 40), 8) for _ in range(3))
        try:
            p = dihedral_invariants(a, b, c)
            exact = absolute_invariants(p)
        except Exception:
            continue
        curve = Genus2Curve(UniPoly([0, 1, c, b, a, 1]))
        ig = oracle.igusa_invariants(curve)
        wants = (exact.i1, exact.i2, exact.i3)
        with mp.workprec(300):
            for got, want in zip((ig.i1, ig.i2, ig.i3), wants):
                ref = mp.mpf(want.numerator) / want.denominator
                assert abs(got - ref) / (1 + abs(ref)) < 1e-12
        done += 1


# ---------------------------------------------------------------------------
# lifting invariant points back to coefficients


def test_lift_point_round_trip():
    for s in [(3, 20, 82), (1, 2, 2), (F(25, 2), 0, F(625, 2))]:
        p = DihedralPoint(F(s[0]), F(s[1]), F(s[2]))
        a, b, c = oracle.lift_point(p)
        assert abs(a * c - p.s2) < 1e-24
        assert abs((a * a + c * c) * b - p.s3) < 1e-22
        assert abs(a**4 + c**4 - p.s4) < 1e-20


def test_lift_point_needs_nonzero_scale():
    with pytest.raises(ValueError, match="scale factor vanishes"):
        oracle.lift_point(DihedralPoint(F(1), F(0), F(-2)))
