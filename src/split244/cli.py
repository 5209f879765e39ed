"""Command-line front end.

Four commands: `analyze` runs the full pipeline on a curve or invariant
point, `family` samples candidate points on one of the five g-components,
`verify` runs the verification suites, and `oracle` exposes the raw numeric
operations. Output is JSON (sorted keys, rationals as strings); `--pretty`
renders a human table instead. Exit codes: 0 success, 1 usage, 2 domain
error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from enum import Enum
from fractions import Fraction
from typing import Any, Optional, Sequence

import mpmath as mp

from . import oracle
from .curves import Genus2Curve, UVPoint, genus2_from_uv, make_genus3
from .errors import NonConvergence, Split244Error
from .exact import UniPoly, rat, rat_str, squarefree_part
from .invariants import (
    DELTA_S_POLY,
    DihedralPoint,
    absolute_invariants,
    delta_abc,
    delta_s,
    dihedral_invariants,
    invariant_scale,
)
from .loci import F1_POLY, G_COMPONENTS, classify_aut
from .subfields import (
    discrepancy_diagnostic,
    full_pipeline,
    j12_quadratic,
    j_E,
    point_pipeline,
    uv_for_Z23,
)

_USAGE_EXIT = 1
_DOMAIN_EXIT = 2
_VERIFY_EXIT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for domain
    # errors, so remap.
    def error(self, message):
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _serialize(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        if isinstance(obj, float) and obj != obj:
            return "nan"
        if isinstance(obj, float) and obj in (float("inf"), float("-inf")):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (mp.mpf, mp.mpc)):
        return mp.nstr(obj, 17)
    if hasattr(obj, "to_json"):
        return _serialize(obj.to_json())
    if isinstance(obj, dict):
        return {str(k): _serialize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_serialize(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(_serialize(v) for v in obj)
    return str(obj)


def _emit(payload: Any, pretty: bool) -> None:
    data = _serialize(payload)
    if pretty:
        _pretty_print(data)
    else:
        print(json.dumps(data, sort_keys=True, indent=2))


def _pretty_print(data: Any, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _pretty_print(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                _pretty_print(item, indent)
                print()
            else:
                print(f"{pad}- {item}")
    else:
        print(f"{pad}{data}")


def _rat_arg(text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="JSON output (default)")
    p.add_argument("--pretty", action="store_true", help="human-readable output")
    p.add_argument("--tolerance", type=float, default=oracle.DEFAULT_INVOLUTION_TOL)
    p.add_argument("--precision-bits", type=int, default=None)


def _add_curve_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=_rat_arg)
    p.add_argument("--b", type=_rat_arg)
    p.add_argument("--c", type=_rat_arg)
    p.add_argument("--s2", type=_rat_arg)
    p.add_argument("--s3", type=_rat_arg)
    p.add_argument("--s4", type=_rat_arg)
    p.add_argument("--u", type=_rat_arg)
    p.add_argument("--v", type=_rat_arg)


def build_parser() -> _Parser:
    parser = _Parser(prog="split244")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    pa = sub.add_parser("analyze", help="full pipeline report for one input")
    _add_curve_inputs(pa)
    _add_common(pa)
    pa.add_argument("--timings", action="store_true", help="include wall times")

    pf = sub.add_parser("family", help="sample candidate points on a g-component")
    pf.add_argument("--component", required=True, choices=sorted(G_COMPONENTS))
    pf.add_argument("--s2-min", type=_rat_arg, default=Fraction(-10))
    pf.add_argument("--s2-max", type=_rat_arg, default=Fraction(10))
    pf.add_argument("--samples", type=int, default=20)
    pf.add_argument("--seed", type=int, default=0)
    _add_common(pf)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument(
        "--suite",
        required=True,
        choices=("paper-anchors", "cross-validation", "discriminants"),
    )
    pv.add_argument("--samples", type=int, default=200)
    pv.add_argument("--seed", type=int, default=7)
    _add_common(pv)

    po = sub.add_parser("oracle", help="raw numeric operations")
    po.add_argument(
        "op",
        choices=("roots", "involution", "uv", "normal-form", "js", "igusa"),
    )
    po.add_argument("--coeffs", help="ascending sextic coefficients, comma-separated")
    _add_curve_inputs(po)
    _add_common(po)
    return parser


# ---------------------------------------------------------------------------
# analyze

def _cmd_analyze(args) -> int:
    have_abc = [x is not None for x in (args.a, args.b, args.c)]
    have_s = [x is not None for x in (args.s2, args.s3, args.s4)]
    if any(have_abc) and any(have_s):
        print("split244: error: give either --a/--b/--c or --s2/--s3/--s4", file=sys.stderr)
        return _USAGE_EXIT
    started = time.perf_counter()
    try:
        if all(have_abc):
            curve = make_genus3(args.a, args.b, args.c)
            report = full_pipeline(
                curve, tol=args.tolerance, precision=args.precision_bits
            )
            echo: dict[str, Any] = {"a": args.a, "b": args.b, "c": args.c}
        elif all(have_s):
            point = DihedralPoint(args.s2, args.s3, args.s4)
            report = point_pipeline(
                point, tol=args.tolerance, precision=args.precision_bits
            )
            echo = {"s2": args.s2, "s3": args.s3, "s4": args.s4}
        else:
            print(
                "split244: error: need all of --a/--b/--c or all of --s2/--s3/--s4",
                file=sys.stderr,
            )
            return _USAGE_EXIT
    except Split244Error as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args.pretty)
        return _DOMAIN_EXIT
    payload = {"input": echo}
    payload.update(report)
    if args.timings:
        payload["timings"] = {"total_s": round(time.perf_counter() - started, 6)}
    _emit(payload, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# family

def _real_roots(coeffs: Sequence, bits: Optional[int]) -> list:
    found = oracle.polynomial_roots(coeffs, precision=bits)
    out = []
    for r in found:
        if abs(mp.im(r)) <= 1e-20 * (1 + abs(r)):
            out.append(mp.re(r))
    return out


def _distinct_real_roots(f: UniPoly, bits: Optional[int]) -> list:
    # The g-components sit on the multiple-root locus of the restricted
    # octic, so pass the squarefree part to the iteration.
    return _real_roots(squarefree_part(f).coeffs, bits)


def _component_s4_values(name: str, s2: Fraction, bits: Optional[int]) -> list:
    poly = G_COMPONENTS[name]
    restricted = poly.restrict(2, (s2, Fraction(0)))
    if restricted.degree == 1:
        c0, c1 = restricted.coeffs
        return [-c0 / c1]
    if restricted.degree < 1:
        return []
    return _distinct_real_roots(restricted, bits)


def _f1_s3_values(s2, s4, bits: Optional[int]) -> list:
    try:
        if isinstance(s2, Fraction) and isinstance(s4, Fraction):
            restricted = F1_POLY.restrict(1, (s2, s4))
            if restricted.degree < 1:
                return []
            return _distinct_real_roots(restricted, bits)
        with mp.workprec(oracle.precision_bits(bits) + 16):
            coeffs: dict[int, Any] = {}
            for (e2, e3, e4), c in F1_POLY.terms.items():
                term = oracle._to_mp(c) * oracle._to_mp(s2) ** e2 * oracle._to_mp(s4) ** e4
                coeffs[e3] = coeffs.get(e3, mp.mpf(0)) + term
            top = max(coeffs)
            dense = [coeffs.get(i, mp.mpf(0)) for i in range(top + 1)]
        return _real_roots(dense, bits)
    except NonConvergence as exc:
        # A rounded point of the component can leave root clusters too
        # tight to separate; skip the fiber rather than guess, and say so.
        print(
            f"split244: family: skipped fiber s2={_serialize(s2)} "
            f"s4={_serialize(s4)}: NonConvergence: {exc}",
            file=sys.stderr,
        )
        return []


def _family_point_verdict(s2, s3, s4, tol: float, bits: Optional[int]) -> dict:
    with mp.workprec(oracle.precision_bits(bits) + 16):
        scale = max(mp.mpf(1), *(abs(oracle._to_mp(t)) for t in (s2, s3, s4)))
        delta = DELTA_S_POLY(*(oracle._to_mp(t) for t in (s2, s3, s4)))
        if abs(delta) < mp.mpf(2) ** (-oracle.precision_bits(bits) // 2) * scale**5:
            # a component can run along the discriminant locus; the fiber
            # there is a singular octavic, not a curve
            return {"verdict": "singular"}
    point = DihedralPoint(s2, s3, s4)
    try:
        a, b, c = oracle.lift_point(point, precision=bits)
    except ValueError as exc:
        return {"verdict": "no-lift", "detail": str(exc)}
    coeffs = [0, 1, c, b, a, 1]
    witness, residual = oracle.best_involution_candidate(coeffs, precision=bits)
    if witness is None or residual > tol:
        return {"verdict": "no-involution", "residual": residual}
    ja, jb = oracle.subcover_js_from_coeffs(coeffs, witness, precision=bits)
    gap = float(abs(ja - jb) / (1 + abs(ja) + abs(jb)))
    return {
        "verdict": "isomorphic" if gap < tol else "distinct",
        "j1": ja,
        "j2": jb,
        "j_gap": gap,
        "residual": residual,
    }


def _cmd_family(args) -> int:
    import random

    rng = random.Random(args.seed)
    lo, hi = args.s2_min, args.s2_max
    if hi <= lo:
        print("split244: error: empty s2 range", file=sys.stderr)
        return _USAGE_EXIT
    index = 0
    for _ in range(args.samples):
        s2 = lo + Fraction(rng.randint(0, 12 * int(hi - lo)), 12)
        for s4 in _component_s4_values(args.component, s2, args.precision_bits):
            for s3 in _f1_s3_values(s2, s4, args.precision_bits):
                row: dict[str, Any] = {
                    "index": index,
                    "component": args.component,
                    "s2": s2,
                    "s3": s3,
                    "s4": s4,
                }
                try:
                    row.update(
                        _family_point_verdict(
                            s2, s3, s4, args.tolerance, args.precision_bits
                        )
                    )
                except Split244Error as exc:
                    row["verdict"] = "error"
                    row["detail"] = f"{type(exc).__name__}: {exc}"
                print(json.dumps(_serialize(row), sort_keys=True))
                index += 1
    return 0


# ---------------------------------------------------------------------------
# verify

def _check(name: str, fn) -> dict:
    try:
        detail = fn()
        return {"name": name, "passed": True, "detail": detail}
    except AssertionError as exc:
        return {"name": name, "passed": False, "detail": str(exc)}
    except Split244Error as exc:
        return {"name": name, "passed": False, "detail": f"{type(exc).__name__}: {exc}"}


def _suite_paper_anchors(samples: int, seed: int, tol: float, bits) -> list[dict]:
    F = Fraction
    checks = []

    def anchor_pipeline():
        report = full_pipeline(make_genus3(1, 1, 1))
        p = report["s"]
        assert (p.s2, p.s3, p.s4) == (1, 2, 2), f"s = {p.to_json()}"
        i = report["i"]
        assert (i.i1, i.i2, i.i3) == (F(-48, 5), F(432, 5), F(1, 400))
        assert report["aut"].value == "Z2^3"
        assert report["locus"].in_T and report["locus"].components == frozenset({"T1"})
        assert report["jE"] == 2048
        assert (report["uv"]["u"], report["uv"]["v"]) == (9, F(-754, 5))
        jp = report["jpair"]
        assert jp.j1.rat == F(32768, 5) and jp.j1.coeff == F(2, 5)
        assert jp.j1.radicand == 268435081
        return "full (1,1,1) report reproduced"

    checks.append(_check("example-pipeline", anchor_pipeline))
    checks.append(
        _check(
            "discriminant-anchors",
            lambda: (
                assert_equal(delta_s(DihedralPoint(1, 2, 2)), -2000),
                assert_equal(delta_abc(1, 1, 1), 4000000),
                "delta anchors",
            )[-1],
        )
    )
    checks.append(
        _check(
            "uv-map-anchors",
            lambda: (
                assert_equal(uv_for_Z23(1, 2), UVPoint(F(9), F(-754, 5))),
                assert_equal(j12_quadratic(9, F(-754, 5)), (F(-65536, 5), F(60))),
                "quadratic anchors",
            )[-1],
        )
    )

    def classification():
        cases = {
            (1, 2, 2): "Z2^3",
            (1, 0, -2): "Z2xZ4",
            (196, 0, -76832): "D12",
            (0, 5, 0): "Z2xD8",
            (1, 2, 3): "Z2xZ2",
        }
        for (s2, s3, s4), label in cases.items():
            got = classify_aut(DihedralPoint(F(s2), F(s3), F(s4))).value
            assert got == label, f"{(s2, s3, s4)} -> {got}, wanted {label}"
        return f"{len(cases)} classification anchors"

    checks.append(_check("classification", classification))

    def oracle_anchors():
        curve = Genus2Curve(UniPoly([0, 1, 1, 1, 1, 1]))
        nuv = oracle.uv_numeric(curve, tol=tol, precision=bits)
        assert abs(nuv.u - 9) < 1e-9 and abs(nuv.v + mp.mpf(754) / 5) < 1e-9
        oracle.igusa_calibration_check(precision=bits)
        return "uv and invariant calibrations hold"

    checks.append(_check("oracle-calibration", oracle_anchors))
    return checks


def assert_equal(got, want):
    assert got == want, f"{got!r} != {want!r}"


def _sample_abc(rng) -> tuple[Fraction, Fraction, Fraction]:
    return tuple(
        Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(3)
    )


def _suite_cross_validation(samples: int, seed: int, tol: float, bits) -> list[dict]:
    import random

    from .curves import subcovers
    from .invariants import j_quartic

    checks = []

    def je_matches():
        rng = random.Random(seed)
        done = 0
        while done < samples:
            a, b, c = _sample_abc(rng)
            try:
                curve = make_genus3(a, b, c)
            except Split244Error:
                continue
            p = dihedral_invariants(a, b, c)
            if invariant_scale(p) == 0 or delta_s(p) == 0:
                continue
            e_model, _ = subcovers(curve)
            assert j_E(p) == j_quartic(e_model), f"mismatch at {(a, b, c)}"
            done += 1
        return f"closed-form j matches the quartic model, {done}/{done}"

    checks.append(_check("je-vs-quartic", je_matches))

    def igusa_matches():
        rng = random.Random(seed + 1)
        from .curves import subcovers

        done = 0
        n = max(10, samples // 10)
        while done < n:
            a, b, c = _sample_abc(rng)
            try:
                curve = make_genus3(a, b, c)
                exact = absolute_invariants(dihedral_invariants(a, b, c))
            except Split244Error:
                continue
            _, genus2 = subcovers(curve)
            got = oracle.igusa_invariants(genus2, precision=bits)
            for g, t in ((got.i1, exact.i1), (got.i2, exact.i2), (got.i3, exact.i3)):
                tv = mp.mpf(t.numerator) / t.denominator
                assert abs(g - tv) <= 1e-9 * (1 + abs(tv)), f"at {(a, b, c)}"
            done += 1
        return f"root-difference invariants match closed forms, {done}/{done}"

    checks.append(_check("igusa-vs-closed-form", igusa_matches))
    return checks


def _suite_discriminants(samples: int, seed: int, tol: float, bits) -> list[dict]:
    import random

    checks = []
    checks.append(
        _check(
            "anchor-identity",
            lambda: (
                assert_equal(delta_abc(1, 1, 1), delta_s(DihedralPoint(1, 2, 2)) ** 2),
                "4000000 = (-2000)^2",
            )[-1],
        )
    )

    def square_identity():
        rng = random.Random(seed)
        bad = []
        done = 0
        while done < samples:
            a, b, c = _sample_abc(rng)
            p = dihedral_invariants(a, b, c)
            lhs = delta_abc(a, b, c)
            rhs = delta_s(p) ** 2
            if lhs != rhs:
                bad.append((str(a), str(b), str(c)))
            done += 1
        assert not bad, (
            f"delta_abc = delta_s^2 failed on {len(bad)}/{done} samples, "
            f"first at {bad[0]}"
        )
        return f"square identity held on {done} samples"

    checks.append(_check("square-identity", square_identity))

    def scaled_identity():
        rng = random.Random(seed)
        done = 0
        while done < samples:
            a, b, c = _sample_abc(rng)
            p = dihedral_invariants(a, b, c)
            m = invariant_scale(p)
            assert 256 * delta_s(p) ** 2 == m**4 * delta_abc(a, b, c)
            done += 1
        return f"256 delta_s^2 = scale^4 delta_abc held on {done} samples"

    checks.append(_check("scaled-square-identity", scaled_identity))
    return checks


def _cmd_verify(args) -> int:
    suites = {
        "paper-anchors": _suite_paper_anchors,
        "cross-validation": _suite_cross_validation,
        "discriminants": _suite_discriminants,
    }
    results = suites[args.suite](
        args.samples, args.seed, args.tolerance, args.precision_bits
    )
    failures = sum(1 for r in results if not r["passed"])
    payload = {
        "suite": args.suite,
        "results": results,
        "failures": failures,
        "informational": {"j_pair_diagnostic": discrepancy_diagnostic()},
    }
    _emit(payload, args.pretty)
    return _VERIFY_EXIT if failures else 0


# ---------------------------------------------------------------------------
# oracle passthrough

def _oracle_input(args) -> Genus2Curve:
    if args.coeffs:
        coeffs = [rat(part) for part in args.coeffs.split(",")]
        return Genus2Curve(UniPoly(coeffs))
    if args.u is not None and args.v is not None:
        return genus2_from_uv(UVPoint(args.u, args.v))
    if args.a is not None and args.b is not None and args.c is not None:
        from .curves import subcovers

        _, genus2 = subcovers(make_genus3(args.a, args.b, args.c))
        return genus2
    raise argparse.ArgumentTypeError(
        "need --coeffs, or --u/--v, or --a/--b/--c"
    )


def _cmd_oracle(args) -> int:
    try:
        curve = _oracle_input(args)
    except argparse.ArgumentTypeError as exc:
        print(f"split244: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (Split244Error, ValueError) as exc:
        # ValueError covers model-shape complaints (wrong degree, bad
        # coefficient text) that are not Split244Error subclasses
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args.pretty)
        return _DOMAIN_EXIT
    bits = args.precision_bits
    try:
        if args.op == "roots":
            payload: Any = [r.to_json() for r in oracle.roots(curve.sextic, bits)]
        elif args.op == "involution":
            witness, residual = oracle.best_involution_candidate(
                curve.sextic.coeffs, precision=bits
            )
            payload = {
                "witness": witness,
                "best_residual": residual,
                "accepted": witness is not None and residual <= args.tolerance,
            }
        else:
            if args.op == "igusa":
                payload = oracle.igusa_invariants(curve, precision=bits)
            else:
                witness = oracle.detect_involution(
                    curve, tol=args.tolerance, precision=bits
                )
                if witness is None:
                    _emit(
                        {"error": {"type": "NoInvolution", "message": "no involution within tolerance"}},
                        args.pretty,
                    )
                    return _DOMAIN_EXIT
                if args.op == "uv":
                    payload = oracle.uv_numeric(
                        curve, tol=args.tolerance, witness=witness, precision=bits
                    )
                elif args.op == "normal-form":
                    payload = oracle.v4_normal_form(
                        curve, witness, tol=args.tolerance, precision=bits
                    )
                else:
                    ja, jb = oracle.subcover_js(
                        curve, witness, tol=args.tolerance, precision=bits
                    )
                    payload = {"j1": ja, "j2": jb}
    except Split244Error as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args.pretty)
        return _DOMAIN_EXIT
    _emit(payload, args.pretty)
    return 0


_VALUE_FLAGS = frozenset(
    {
        "--a", "--b", "--c", "--s2", "--s3", "--s4", "--u", "--v",
        "--s2-min", "--s2-max", "--coeffs",
    }
)


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    # argparse reads a following "-754/5" as an unknown flag; fold such
    # values into flag=value tokens before it looks.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _VALUE_FLAGS
            and nxt is not None
            and len(nxt) > 1
            and nxt[0] == "-"
            and nxt[1].isdigit()
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(argv))
    if args.command is None:
        parser.print_usage(sys.stderr)
        return _USAGE_EXIT
    try:
        oracle.precision_bits(getattr(args, "precision_bits", None))
    except ValueError as exc:
        print(f"split244: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    handlers = {
        "analyze": _cmd_analyze,
        "family": _cmd_family,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
