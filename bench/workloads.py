"""The benchmark's three workloads.

Each workload turns a seed into an endless stream of cases, one case being
an input together with the reference its output is checked against.  The
reference is computed when the case is drawn, which the harness does
before it starts timing the case.  ``call`` drives the library through its
public functions only, looked up as module attributes so that the traced
run sees them; ``check`` returns ``None`` for a correct output, or
``("failed" | "wrong", detail)``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from split244 import cli, curves, exact, loci, oracle, subfields  # noqa: E402
from split244.errors import DenominatorZero, J2Vanishes, NonConvergence, Split244Error  # noqa: E402

FAILED, WRONG = "failed", "wrong"

# Working precision of the references, in bits: twice the library default.
REF_BITS = 256


def set_up() -> None:
    """Warm every one-time gate and cache the workloads touch: the (u, v)
    and Igusa calibration contracts, the quadext prime sieve, and one call
    down each route (exact pipeline, numeric scan, oracle chain, CLI)."""
    subfields.full_pipeline(curves.make_genus3(1, 1, 1))
    subfields.full_pipeline(curves.make_genus3(1, 2, 3))
    exact.quadext(0, 1, 2 * 1000003)
    calibration = curves.Genus2Curve(exact.UniPoly([0, 1, 1, 1, 1, 1]))
    oracle.uv_numeric(calibration)
    oracle.igusa_calibration_check()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["family", "--component", "g1", "--s2-min", "1", "--s2-max", "3/2", "--samples", "1"])


def _mpq(x: F):
    return mp.mpf(x.numerator) / x.denominator


def _even_points(rng: random.Random, sizes: tuple):
    """Endless tuples of grid indices, index k in range(sizes[k]), from an
    additive recurrence with a seeded start (Roberts' R_d sequence).  Any
    stretch of consecutive points covers the grid evenly, so the mix of
    cheap and costly inputs in a run hardly depends on the seed, as it does
    with independent draws: the cost of an input drifts along its grid (a
    uv_roundtrip sextic's nearly doubles from u = 0 to |u| = 15)."""
    g = 2.0
    for _ in range(60):
        g = (1 + g) ** (1 / (len(sizes) + 1))
    steps = [g ** -(k + 1) for k in range(len(sizes))]
    x = [rng.random() for _ in sizes]
    while True:
        yield tuple(int(n * t) for n, t in zip(sizes, x))
        x = [(t + step) % 1.0 for t, step in zip(x, steps)]


def _draw_rational(rng: random.Random) -> F:
    # The acceptance tests' draw for curve coefficients.
    return F(rng.randint(-30, 30), rng.randint(1, 6))


# ---------------------------------------------------------------------------
# analyze_curves


def _octavic_nonsingular(a: F, b: F, c: F) -> bool:
    # X^8 + a X^6 + b X^4 + c X^2 + 1 = q(X^2) with q(0) = 1, so it has a
    # repeated root exactly when q(U) = U^4 + a U^3 + b U^2 + c U + 1 does,
    # that is when 4 I^3 = J^2 for the quartic's classical invariants.
    i, j = _quartic_ij(a, b, c)
    return 4 * i**3 != j * j


def _quartic_ij(a: F, b: F, c: F) -> tuple[F, F]:
    i = 12 - 3 * a * c + b * b
    j = 72 * b - 27 * c * c - 27 * a * a + 9 * a * b * c - 2 * b**3
    return i, j


def _f1_exact(s2: F, s3: F, s4: F) -> F:
    return sum(c * s2**e2 * s3**e3 * s4**e4 for (e2, e3, e4), c in loci.F1_POLY.terms.items())


# The README's report for (a, b, c) = (1, 1, 1).
ANCHOR = {
    "s": (F(1), F(2), F(2)),
    "i": (F(-48, 5), F(432, 5), F(1, 400)),
    "aut": "Z2^3",
    "components": {"T1"},
    "jE": F(2048),
    "uv": (F(9), F(-754, 5)),
    "j1": (F(32768, 5), F(2, 5), F(268435081)),
}


@dataclass(frozen=True)
class AnalyzeCase:
    abc: tuple
    kind: str  # "anchor", "z2^3" or "generic"
    jE: F
    in_T: bool
    uv: tuple | None  # exact (u, v) on the Z2^3 stratum
    quadratic: tuple | None  # (B, C) of j^2 + B j + C at that (u, v)


class AnalyzeCurves:
    """``full_pipeline(make_genus3(a, b, c))`` over the acceptance tests'
    rational triples.  Every third input sits on the Z2^3 stratum (c = +-a)
    and takes the exact route through ``quadext``; the others are generic
    and end in one numeric involution scan that finds no involution."""

    name = "analyze_curves"
    round_size = 3
    chunk = 300
    # Not p98 or p99, the highest with ten samples beyond them: on a shared
    # host, some runs have a burst in which 2-4% of the inputs, drawn at
    # random, take 50% longer in CPU time, and others have none, so p98
    # moved by up to 50% between runs of the same inputs; p95 lies below it.
    tail_pct = 95

    def cases(self, seed: int):
        rng = random.Random(seed)
        yield self._case((F(1), F(1), F(1)), "anchor")
        index = 1
        while True:
            a, b, c = (_draw_rational(rng) for _ in range(3))
            if index % 3 == 0:
                c = a if rng.random() < 0.5 else -a
                kind = "z2^3"
            else:
                kind = "generic"
                if c == a or c == -a:
                    continue
            if (a == 0 and c == 0) or not _octavic_nonsingular(a, b, c):
                continue
            yield self._case((a, b, c), kind)
            index += 1

    @staticmethod
    def _case(abc: tuple, kind: str) -> AnalyzeCase:
        a, b, c = abc
        i, j = _quartic_ij(a, b, c)
        je = 1728 * 4 * i**3 / (4 * i**3 - j * j)
        s2, s3, s4 = a * c, (a * a + c * c) * b, a**4 + c**4
        in_t = s4 == 2 * s2 * s2 or s4 == -2 * s2 * s2 or _f1_exact(s2, s3, s4) == 0
        uv = quadratic = None
        if kind != "generic":
            point = subfields.uv_for_Z23(s2, s3)
            uv = (point.u, point.v)
            with contextlib.suppress(DenominatorZero):
                quadratic = subfields.j12_quadratic(point.u, point.v)
        return AnalyzeCase(abc, kind, je, in_t, uv, quadratic)

    def call(self, case: AnalyzeCase):
        return subfields.full_pipeline(curves.make_genus3(*case.abc))

    def check(self, case: AnalyzeCase, report: dict):
        if report["jE"] != case.jE:
            return WRONG, f"jE {report['jE']} != j_quartic {case.jE}"
        if report["locus"].in_T != case.in_T:
            return WRONG, "locus_T membership disagrees with the exact locus equation"
        if ("unavailable" not in report["uv"]) != case.in_T:
            return WRONG, "(u, v) reported off T, or missing on T"
        if case.kind == "generic":
            return None
        if (report["uv"]["u"], report["uv"]["v"]) != case.uv:
            return WRONG, f"uv {report['uv']} != {case.uv}"
        if case.quadratic is None:
            return None if "unavailable" in report["jpair"] else (WRONG, "j-pair where its quadratic is undefined")
        j1, j2 = report["jpair"].j1, report["jpair"].j2
        if j1.radicand != j2.radicand and j1.coeff and j2.coeff:
            return WRONG, "j-pair radicands differ"
        radicand = j1.radicand if j1.coeff else j2.radicand
        total = (j1.rat + j2.rat, j1.coeff + j2.coeff)
        product = (j1.rat * j2.rat + j1.coeff * j2.coeff * radicand, j1.rat * j2.coeff + j1.coeff * j2.rat)
        b, c = case.quadratic
        if total != (-b, 0) or product != (c, 0):
            return WRONG, "j1 + j2 != -B or j1 j2 != C"
        if case.kind == "anchor":
            return _check_anchor(report)
        return None


def _check_anchor(report: dict):
    p, inv, jp = report["s"], report["i"], report["jpair"]
    got = {
        "s": (p.s2, p.s3, p.s4),
        "i": (inv.i1, inv.i2, inv.i3),
        "aut": report["aut"].value,
        "components": set(report["locus"].components),
        "jE": report["jE"],
        "uv": (report["uv"]["u"], report["uv"]["v"]),
        "j1": (jp.j1.rat, jp.j1.coeff, jp.j1.radicand),
    }
    bad = sorted(k for k in ANCHOR if got[k] != ANCHOR[k])
    return (WRONG, f"(1,1,1) report differs from the README in {bad}") if bad else None


# ---------------------------------------------------------------------------
# uv_roundtrip

# Seeded inputs are kept only when every root their polynomial solves must
# find has a first-order condition number (sum |c_i| |r|^i over |f'(r)|) at
# most this.  Above it the library's root solves start to escalate (seen
# from 6e4) or fail (from 5e5), and whether they do changes from one grid
# point to the next: one such input costs as much as twenty others, which
# would make a run's cost a function of the seed.  The clustered cases are
# fiber_scan's fixed fibers and the root panel.
WELL_CONDITIONED = 3e4


def _ref_roots(coeffs: list):
    """Roots of an ascending coefficient list by ``mpmath.polyroots`` at
    REF_BITS, with the first-order condition number of each root."""
    with mp.workprec(REF_BITS):
        cs = [_mpq(c) if isinstance(c, F) else mp.mpf(c) for c in coeffs]
        while cs[-1] == 0:
            cs.pop()
        try:
            roots = mp.polyroots(cs[::-1], maxsteps=500, extraprec=2 * REF_BITS)
        except mp.libmp.NoConvergence:
            roots = mp.polyroots(cs[::-1], maxsteps=2000, extraprec=8 * REF_BITS)
        ds = [k * c for k, c in enumerate(cs)][1:]
        out = []
        for r in roots:
            norm = sum(abs(c) * abs(r) ** k for k, c in enumerate(cs))
            slope = abs(mp.polyval(ds[::-1], r))
            out.append((r, float(norm / slope) if slope else float("inf")))
        return out


def _is_real(r) -> bool:
    return abs(mp.im(r)) <= mp.mpf(2) ** (-REF_BITS // 2) * (1 + abs(r))


def _igusa_clebsch_i2(coeffs) -> F:
    # Degree-2 invariant of y^2 = a0 + a1 x + ... + a6 x^6; Igusa's J2 is I2 / 8.
    a0, a1, a2, a3, a4, a5, a6 = (list(coeffs) + [F(0)] * 7)[:7]
    return 6 * a3 * a3 - 16 * a2 * a4 + 40 * a1 * a5 - 240 * a0 * a6


@dataclass(frozen=True)
class UVCase:
    u: F
    v: F
    B: F  # of the j-pair quadratic j^2 + B j + C at (u, v)
    J2: F  # exact; igusa_invariants raises J2Vanishes where it is 0
    condition: float


def uv_case(u: F, v: F) -> UVCase | None:
    """The case at (u, v) with its reference, or None off the moduli plane."""
    try:
        sextic = curves.genus2_from_uv(curves.UVPoint(u, v)).sextic
        b, _ = subfields.j12_quadratic(u, v)
    except (Split244Error, ValueError):
        return None
    condition = max(k for _, k in _ref_roots(list(sextic.coeffs)))
    return UVCase(u, v, b, _igusa_clebsch_i2(sextic.coeffs) / 8, condition)


class UVRoundtrip:
    """``genus2_from_uv`` at seeded (u, v) on the criterion-8 grid, then the
    four oracle calls a user makes on the result: ``detect_involution``,
    ``uv_numeric``, ``subcover_js`` and ``igusa_invariants``.  Each re-solves
    the same well-conditioned sextic with large coefficients."""

    name = "uv_roundtrip"
    round_size = 1
    chunk = 10
    tail_pct = 85

    def cases(self, seed: int):
        for i, j in _even_points(random.Random(seed), (481, 481)):
            case = uv_case(F(i - 240, 12), F(j - 240, 12))
            if case is not None and case.condition <= WELL_CONDITIONED:
                yield case

    def call(self, case: UVCase):
        curve = curves.genus2_from_uv(curves.UVPoint(case.u, case.v))
        witness = oracle.detect_involution(curve)
        if witness is None:
            return None
        nuv = oracle.uv_numeric(curve, witness=witness)
        js = oracle.subcover_js(curve, witness)
        try:
            igusa = oracle.igusa_invariants(curve)
        except J2Vanishes as exc:  # documented: absolute invariants undefined
            igusa = exc
        return nuv, js, igusa

    def check(self, case: UVCase, out):
        if out is None:
            return FAILED, "no involution detected on a curve built with one"
        nuv, (ja, jb), igusa = out
        err = max(abs(nuv.u - _mpq(case.u)), abs(nuv.v - _mpq(case.v)))
        if not err < 1e-8:
            return WRONG, f"(u, v) round trip error {mp.nstr(err, 5)}"
        with mp.workprec(REF_BITS):
            b = _mpq(case.B)
            if not abs(ja + jb + b) <= 1e-9 * max(1, abs(b)):
                return WRONG, f"ja + jb = {mp.nstr(ja + jb, 17)}, expected {mp.nstr(-b, 17)}"
            if isinstance(igusa, J2Vanishes) or case.J2 == 0:
                if isinstance(igusa, J2Vanishes) and case.J2 == 0:
                    return None
                return WRONG, f"Igusa J2 is {igusa!r}; exact J2 is {case.J2}"
            j2 = _mpq(case.J2)
            if not abs(igusa.J2 - j2) <= 1e-9 * max(1, abs(j2)):
                return WRONG, f"Igusa J2 = {mp.nstr(igusa.J2, 17)}, exact {mp.nstr(j2, 17)}"
        for name in ("i1", "i2", "i3", "J10"):
            x = getattr(igusa, name)
            if not mp.isfinite(x) or abs(mp.im(x)) > 1e-9 * (1 + abs(x)):
                return WRONG, f"Igusa {name} = {mp.nstr(x, 17)} is not a finite real"
        return None


# ---------------------------------------------------------------------------
# fiber_scan


@dataclass(frozen=True)
class FiberCase:
    component: str
    s2: F
    # per real s4 branch: (s4 at REF_BITS, number of real s3 roots)
    branches: tuple
    # the largest condition number among the roots of F1 in s3
    condition: float

    def argv(self) -> list:
        return [
            "family", "--component", self.component, "--s2-min", str(self.s2),
            "--s2-max", str(self.s2 + F(1, 2)), "--samples", "1",
        ]


def fiber_case(component: str, s2: F) -> FiberCase:
    """The fiber with its reference: the real s4 branches of the component
    over s2 and, for each, the number of real roots of F1 in s3, all from
    ``mpmath.polyroots`` at REF_BITS."""
    restricted = loci.G_COMPONENTS[component].restrict(2, (s2, F(0)))
    if restricted.degree < 1:
        return FiberCase(component, s2, (), 0.0)
    if restricted.degree == 1:
        s4_values = [-restricted.coeffs[0] / restricted.coeffs[1]]
    else:
        squarefree = exact.squarefree_part(restricted)
        s4_values = [mp.re(r) for r, _ in _ref_roots(list(squarefree.coeffs)) if _is_real(r)]
    branches = []
    condition = 0.0
    for s4 in s4_values:
        with mp.workprec(REF_BITS):
            if isinstance(s4, F):
                f1 = loci.F1_POLY.restrict(1, (s2, s4))
                coeffs = list(exact.squarefree_part(f1).coeffs) if f1.degree >= 1 else []
                s4 = _mpq(s4)
            else:
                dense: dict = {}
                for (e2, e3, e4), c in loci.F1_POLY.terms.items():
                    dense[e3] = dense.get(e3, 0) + _mpq(c) * _mpq(s2) ** e2 * s4**e4
                coeffs = [dense.get(k, mp.mpf(0)) for k in range(max(dense) + 1)]
        roots = _ref_roots(coeffs) if coeffs else []
        condition = max([condition] + [k for _, k in roots])
        branches.append((s4, sum(1 for r, _ in roots if _is_real(r))))
    return FiberCase(component, s2, tuple(branches), condition)


def _relative_residual(poly, point) -> mp.mpf:
    # |P(x)| over the sum of its terms' absolute values, at REF_BITS.
    value = mp.mpf(0)
    size = mp.mpf(0)
    for exps, c in poly.terms.items():
        term = _mpq(c)
        for x, e in zip(point, exps):
            term *= x**e
        value += term
        size += abs(term)
    return abs(value) / size if size else abs(value)


ROW_RESIDUAL = 1e-12
VERDICTS = ("isomorphic", "distinct", "singular", "no-lift", "no-involution", "error")


# Over g3 and g5 the roots of F1 in s3 are clustered, with condition
# numbers from 1e6 to 1e9, and whether a solve converges at once, converges
# after an escalation of precision or fails after three changes from one
# grid point to the next: a seeded g3 or g5 fiber costs anything from 1 s to
# 13 s, which would make the throughput a function of the seed.  Two fibers
# there are fixed instead.  Every fiber_scan run starts with
# ESCALATING_FIBER, one of whose F1 solves converges only at doubled
# precision; no solve there fails.  FAILING_FIBER, the first fiber of
# `family --component g5` over the CLI's default window, is the traced run's
# probe of the failing path: one of its four F1 solves fails after three
# escalations, and the CLI silently drops that branch's rows.  It is kept out
# of the timed loop, where it would be a failed operation in every run, and
# reported as per-layer metrics instead.
ESCALATING_FIBER = ("g5", F(3, 4))
FAILING_FIBER = ("g5", F(-10))
# The seed draws fibers of these components, and keeps the well-conditioned
# ones: no solve fails there.
SEEDED_COMPONENTS = ("g1", "g2", "g4")


class FiberScan:
    """``cli.main(["family", ...])`` in-process on single fibers: one sample
    in a window narrower than 1 pins s2.  Every run starts with the fixed
    escalating fiber, then scans seeded well-conditioned fibers of g1, g2
    and g4, in turn, at seeded s2 on the CLI's 1/12 grid of its default
    window [-10, 10]."""

    name = "fiber_scan"
    round_size = 1
    chunk = 6
    tail_pct = 88

    def cases(self, seed: int):
        yield fiber_case(*ESCALATING_FIBER)
        rng = random.Random(seed)
        grids = {component: _even_points(rng, (241,)) for component in SEEDED_COMPONENTS}
        for component in itertools.cycle(SEEDED_COMPONENTS):
            for (i,) in grids[component]:
                case = fiber_case(component, F(i - 120, 12))
                if case.condition <= WELL_CONDITIONED:
                    yield case
                    break

    def call(self, case: FiberCase):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(case.argv())
        return code, out.getvalue()

    @staticmethod
    def rows(out) -> list:
        return [json.loads(line) for line in out[1].splitlines()]

    def check(self, case: FiberCase, out):
        code, _ = out
        if code != 0:
            return FAILED, f"exit code {code}"
        rows = self.rows(out)
        g = loci.G_COMPONENTS[case.component]
        with mp.workprec(REF_BITS):
            for row in rows:
                if row["component"] != case.component or F(row["s2"]) != case.s2:
                    return WRONG, f"row for another fiber: {row}"
                s2, s3, s4 = (_parse(row[k]) for k in ("s2", "s3", "s4"))
                for name, poly in (("F1", loci.F1_POLY), (case.component, g)):
                    residual = _relative_residual(poly, (s2, s3, s4))
                    if residual > ROW_RESIDUAL:
                        return WRONG, f"{name} residual {mp.nstr(residual, 3)} at row {row['index']}"
            for row in rows:
                if str(row.get("detail", "")).startswith(NonConvergence.__name__):
                    return FAILED, f"NonConvergence at row {row['index']}"
        dropped = self.dropped(case, rows)
        if dropped:
            s4, real = dropped[0]
            return FAILED, f"fiber s4 = {mp.nstr(s4, 17)} dropped: {real} real s3 roots, no rows"
        return None

    @staticmethod
    def dropped(case: FiberCase, rows: list) -> list:
        """The real s4 branches with real s3 roots for which no row came."""
        with mp.workprec(REF_BITS):
            return [
                (s4, real) for s4, real in case.branches
                if real and not any(abs(_parse(row["s4"]) - s4) <= 1e-10 * (1 + abs(s4)) for row in rows)
            ]


def _parse(text: str):
    # Rows carry rationals as "p/q" or integers, mpmath values as decimals.
    return _mpq(F(text)) if "/" in text else mp.mpf(text)


WORKLOADS = {w.name: w for w in (AnalyzeCurves(), UVRoundtrip(), FiberScan())}
