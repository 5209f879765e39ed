"""Numeric verification oracle: complex root-finding, detection of the extra
involution on genus-2 sextics, the V4 normal form, numeric (u, v), subcover
j-invariants computed from the actual quotient models, and classical genus-2
invariants from root differences.

Nothing here consumes the closed forms it is meant to check; the only shared
vocabulary with the exact modules is curve coefficients and reported values.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp

from .curves import Genus2Curve, UVPoint
from .errors import (
    CalibrationFailure,
    DegenerateTransform,
    J2Vanishes,
    NonConvergence,
    SingularCubic,
    SingularQuartic,
)
from .exact import UniPoly
from .invariants import DihedralPoint

__all__ = [
    "ComplexApprox",
    "InvolutionWitness",
    "NormalForm",
    "NumericUV",
    "IgusaInvariants",
    "precision_bits",
    "polynomial_roots",
    "roots",
    "detect_involution",
    "best_involution_candidate",
    "v4_normal_form",
    "uv_numeric",
    "uv_numeric_from_coeffs",
    "subcover_js",
    "subcover_js_from_coeffs",
    "igusa_invariants",
    "igusa_calibration_check",
    "lift_point",
]

DEFAULT_PRECISION_BITS = 128
DEFAULT_REL_TOL = 1e-9
DEFAULT_INVOLUTION_TOL = 1e-6
ITERATION_CAP = 500

# The genus-2 subcover of the curve with (a, b, c) = (1, 1, 1); both
# numeric calibration contracts below are anchored on it.
_CALIBRATION_SEXTIC = (0, 1, 1, 1, 1, 1)
_CALIBRATION_UV = (Fraction(9), Fraction(-754, 5))


def precision_bits(override: Optional[int] = None) -> int:
    """Working precision in bits: explicit argument, else the
    SPLIT244_PRECISION_BITS environment variable, else 128."""
    if override is not None:
        bits = int(override)
    else:
        bits = int(os.environ.get("SPLIT244_PRECISION_BITS", DEFAULT_PRECISION_BITS))
    if bits < 64:
        raise ValueError("precision below 64 bits is not supported")
    return bits


def _to_mp(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    if isinstance(x, complex):
        return mp.mpc(x.real, x.imag)
    return mp.mpmathify(x)


# ---------------------------------------------------------------------------
# Root finding

@dataclass(frozen=True)
class ComplexApprox:
    """One polynomial root with its backward error and a rough sensitivity
    estimate (sum |c_i| |r|^i over |f'(r)|, the usual first-order bound)."""

    re: object
    im: object
    residual: float
    condition: float

    @property
    def value(self):
        return mp.mpc(self.re, self.im)

    def to_json(self) -> dict:
        return {
            "re": mp.nstr(self.re, 17),
            "im": mp.nstr(self.im, 17),
            "residual": float(self.residual),
            "condition": float(self.condition),
        }


def _horner(cs, z):
    acc = 0 * z
    for c in reversed(cs):
        acc = acc * z + c
    return acc


# A root is accepted once its backward error is at most this many units of
# n * eps of the size of p's terms at it (Bini 1996).  4 clears the rounding
# noise of a double-precision Horner sum, which is at most 2 n eps of that
# size.
_BACKWARD_SLACK = 4


def _iterate(monic, z, eps) -> bool:
    """Gauss-Seidel Aberth sweeps on z in place, in whatever arithmetic
    monic, z and the unit roundoff eps carry (complex or mpmath).  A root
    whose backward error passes |p(z)| <= c n eps sum |a_i| |z|^i is no
    longer moved; once every root has passed, one more full sweep polishes
    them all.  Returns whether that happened within ITERATION_CAP sweeps."""
    dmonic = [i * c for i, c in enumerate(monic)][1:]
    sizes = [abs(c) for c in monic]
    tol = _BACKWARD_SLACK * len(z) * eps
    values = [None] * len(z)
    pending = range(len(z))
    for _ in range(ITERATION_CAP):
        still = []
        for j in pending:
            zj = z[j]
            values[j] = pj = _horner(monic, zj)
            if abs(pj) <= tol * _horner(sizes, abs(zj)):
                continue
            still.append(j)
            dj = _horner(dmonic, zj)
            if dj == 0:
                z[j] = zj + (1 + abs(zj)) / 997
            else:
                z[j] = zj - _aberth_step(pj / dj, z, j)
        if not still:
            # No root moved in this sweep, so values still holds p at each.
            for j, pj in enumerate(values):
                dj = _horner(dmonic, z[j])
                if pj != 0 and dj != 0:
                    z[j] -= _aberth_step(pj / dj, z, j)
            return True
        pending = still
    return False


def _aberth_step(newton, z, j):
    # Aberth's correction of z[j] from its Newton step p/p'.
    zj = z[j]
    den = 1 - newton * sum(1 / (zj - zk) for k, zk in enumerate(z) if k != j)
    return newton if den == 0 else newton / den


def _circle(monic, offset: float, exp, pi) -> list:
    # n points on a circle inside the Cauchy bound at a fixed angular offset.
    n = len(monic) - 1
    radius = 0.8 * (1 + max(abs(c) for c in monic[:-1]))
    return [radius * exp(1j * (2 * pi * j / n + offset)) for j in range(n)]


def _warm_start(cs, offset: float) -> Optional[list]:
    """The roots to double precision by the same iteration in plain Python
    complex arithmetic, from the circle; None when a coefficient leaves the
    double range, the run does not settle, or two approximations coincide
    or are not finite.  The run stops on the backward-error rule at
    eps = 2^-53: for a simple root that is a relative step near 1e-14, and
    unlike a step rule it also ends on clustered roots, whose steps stay
    at the size of the rounding noise."""
    lead = complex(cs[-1])
    if lead == 0 or not cmath.isfinite(lead):
        return None
    monic = [complex(c) / lead for c in cs]
    if any(not cmath.isfinite(w) or (w == 0) != (c == 0) for w, c in zip(monic, cs)):
        return None
    z = _circle(monic, offset, cmath.exp, math.pi)
    try:
        settled = _iterate(monic, z, 2.0**-53)
    except (ZeroDivisionError, OverflowError):
        return None
    if not settled or not all(map(cmath.isfinite, z)) or len(set(z)) < len(z):
        return None
    return z


def _aberth(cs, bits: int, offset: float):
    """Roots of a polynomial with nonzero constant and leading coefficients,
    ascending coefficients cs, by Aberth's simultaneous iteration with the
    stopping rule and two-stage start of Bini, Numer. Algorithms 13 (1996).

    A run in double-precision complex arithmetic, from points on a circle
    inside the Cauchy bound at a fixed angular offset, supplies the
    starting points; where it cannot (see _warm_start) the multiprecision
    run starts from that circle itself.  The multiprecision run, at
    bits + 16, accepts a root once its backward error is at most
    c n 2^-bits sum |a_i| |z|^i and stops moving it; when every root is
    accepted, one more full sweep polishes all of them, which leaves
    well-conditioned roots exact to working precision (see _iterate).
    Deterministic.  Returns the approximations, or None if ITERATION_CAP
    sweeps do not suffice."""
    start = _warm_start(cs, offset)
    with mp.workprec(bits + 16):
        monic = [c / cs[-1] for c in cs]
        if start is None:
            z = _circle(monic, offset, mp.exp, mp.pi)
        else:
            z = [mp.mpc(w.real, w.imag) for w in start]
        return z if _iterate(monic, z, mp.mpf(2) ** -bits) else None


def _roots_list(coeffs: Sequence, bits: int):
    """All complex roots of the ascending coefficient list, zero roots split
    off exactly, deterministic order (rounded lexicographic by (re, im))."""
    with mp.workprec(bits + 16):
        cs = [_to_mp(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) < 2:
        raise NonConvergence("need degree >= 1")
    zeros = 0
    while cs[0] == 0:
        zeros += 1
        cs.pop(0)
    found = []
    if len(cs) >= 2:
        approx = None
        for attempt in range(3):
            approx = _aberth(cs, bits * (2**attempt), 0.39 + 0.17 * attempt)
            if approx is not None:
                break
        if approx is None:
            raise NonConvergence(
                "root iteration failed to converge after escalation"
            )
        found = list(approx)
    found.extend(mp.mpc(0) for _ in range(zeros))
    found.sort(key=lambda w: (round(float(w.real), 10), round(float(w.imag), 10)))
    return found


def polynomial_roots(coeffs: Sequence, precision: Optional[int] = None) -> list:
    """Complex roots of a raw ascending coefficient list (entries may be
    exact rationals or mpmath values), deterministic order."""
    return _roots_list(coeffs, precision_bits(precision))


def roots(f: UniPoly, precision: Optional[int] = None) -> list[ComplexApprox]:
    """Roots of f with residual and sensitivity per root."""
    bits = precision_bits(precision)
    rs = _roots_list(f.coeffs, bits)
    with mp.workprec(bits + 16):
        cs = [_to_mp(c) for c in f.coeffs]
        dcs = [i * c for i, c in enumerate(cs)][1:]
        out = []
        for r in rs:
            res = abs(_horner(cs, r))
            norm = sum(abs(c) * abs(r) ** i for i, c in enumerate(cs))
            dval = abs(_horner(dcs, r))
            cond = float(norm / dval) if dval > 0 else float("inf")
            out.append(
                ComplexApprox(
                    re=r.real, im=r.imag, residual=float(res), condition=cond
                )
            )
    return out


# ---------------------------------------------------------------------------
# Involution detection

@dataclass(frozen=True)
class InvolutionWitness:
    """A trace-zero Mobius map x -> (alpha x + beta)/(gamma x - alpha)
    pairing the six sextic roots, with the worst chordal pairing error.

    Root index 5 stands for the point at infinity when the sextic has
    degree 5. Trace zero makes the map an involution whenever its
    determinant -alpha^2 - beta gamma is nonzero.
    """

    alpha: object
    beta: object
    gamma: object
    pairing: tuple
    residual: float

    @property
    def delta(self):
        return -self.alpha

    def apply(self, z):
        """Evaluate the map; None encodes infinity on both sides."""
        if z is None:
            return None if self.gamma == 0 else self.alpha / self.gamma
        den = self.gamma * z - self.alpha
        if den == 0:
            return None
        return (self.alpha * z + self.beta) / den

    def to_json(self) -> dict:
        return {
            "alpha": mp.nstr(self.alpha, 17),
            "beta": mp.nstr(self.beta, 17),
            "gamma": mp.nstr(self.gamma, 17),
            "pairing": [list(p) for p in self.pairing],
            "residual": float(self.residual),
        }


def _pairings(items: tuple) -> list:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for j, partner in enumerate(rest):
        remaining = rest[:j] + rest[j + 1 :]
        for sub in _pairings(remaining):
            out.append([(first, partner)] + sub)
    return out


_PAIRINGS6 = tuple(tuple(map(tuple, p)) for p in _pairings(tuple(range(6))))


def _chordal(z, w) -> object:
    if z is None and w is None:
        return mp.mpf(0)
    if z is None:
        return 1 / mp.sqrt(1 + abs(w) ** 2)
    if w is None:
        return 1 / mp.sqrt(1 + abs(z) ** 2)
    return abs(z - w) / mp.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2))


def _pair_row(r, s):
    # Constraint on (alpha, beta, gamma) from sigma(r) = s; None is infinity.
    if r is None:
        r, s = s, r
    if s is None:
        return (mp.mpc(1), mp.mpc(0), -r)
    return (r + s, mp.mpc(1), -r * s)


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def best_involution_candidate(
    coeffs: Sequence, precision: Optional[int] = None
) -> tuple[Optional[InvolutionWitness], float]:
    """Scan all 15 root pairings and return the best involution candidate
    together with its residual (inf when every candidate degenerates).
    The caller decides what residual is acceptable."""
    bits = precision_bits(precision)
    finite = _roots_list(coeffs, bits)
    with mp.workprec(bits + 16):
        pts: list = list(finite)
        if len(pts) == 5:
            pts.append(None)
        if len(pts) != 6:
            raise ValueError("expected a degree 5 or 6 polynomial")
        tiny = mp.mpf(2) ** (-(bits // 2))
        best: Optional[InvolutionWitness] = None
        best_res = mp.inf
        for pairing in _PAIRINGS6:
            rows = [_pair_row(pts[i], pts[j]) for i, j in pairing]
            solution = None
            for i, j in ((0, 1), (0, 2), (1, 2)):
                cand = _cross(rows[i], rows[j])
                scale = max(abs(t) for t in cand)
                limit = max(
                    max(abs(t) for t in rows[i]), max(abs(t) for t in rows[j])
                )
                if scale > tiny * (1 + limit) ** 2:
                    solution = cand
                    break
            if solution is None:
                continue
            alpha, beta, gamma = solution
            det = -(alpha**2) - beta * gamma
            if abs(det) <= tiny * max(abs(alpha) ** 2, abs(beta * gamma), tiny):
                continue
            witness = InvolutionWitness(
                alpha=alpha, beta=beta, gamma=gamma, pairing=pairing, residual=0.0
            )
            res = mp.mpf(0)
            for i, j in pairing:
                res = max(res, _chordal(witness.apply(pts[i]), pts[j]))
                res = max(res, _chordal(witness.apply(pts[j]), pts[i]))
            if res < best_res:
                best_res = res
                best = InvolutionWitness(
                    alpha=alpha,
                    beta=beta,
                    gamma=gamma,
                    pairing=pairing,
                    residual=float(res),
                )
        return best, float(best_res)


def detect_involution(
    curve: Genus2Curve,
    tol: float = DEFAULT_INVOLUTION_TOL,
    precision: Optional[int] = None,
) -> Optional[InvolutionWitness]:
    """Best involution witness under tol, or None."""
    witness, residual = best_involution_candidate(
        curve.sextic.coeffs, precision=precision
    )
    if witness is None or residual > tol:
        return None
    return witness


# ---------------------------------------------------------------------------
# Normal form and (u, v)

@dataclass(frozen=True)
class NormalForm:
    """Even model y^2 = x^6 + A x^4 + B x^2 + 1 together with the two
    degree-2 quotient models it induces (ascending coefficients)."""

    A: object
    B: object
    cubic: tuple
    quartic: tuple

    def to_json(self) -> dict:
        return {
            "A": mp.nstr(self.A, 17),
            "B": mp.nstr(self.B, 17),
            "cubic": [mp.nstr(_to_mp(c), 17) for c in self.cubic],
            "quartic": [mp.nstr(_to_mp(c), 17) for c in self.quartic],
        }


def _realify(z, bits: int):
    thresh = mp.mpf(2) ** (-(bits // 2))
    if abs(mp.im(z)) <= thresh * (1 + abs(z)):
        return mp.re(z)
    return z


def _normal_form_from_coeffs(
    coeffs: Sequence, witness: InvolutionWitness, bits: int
) -> NormalForm:
    finite = _roots_list(coeffs, bits)
    with mp.workprec(bits + 16):
        pts: list = list(finite)
        if len(pts) == 5:
            pts.append(None)
        alpha, beta, gamma = witness.alpha, witness.beta, witness.gamma
        scale = max(abs(alpha), abs(beta), abs(gamma))
        if abs(gamma) <= mp.mpf(2) ** (-(bits // 2)) * scale:
            # Affine involution x -> -x - beta/alpha: translate its fixed
            # point to the origin; infinity stays put, which a valid
            # pairing never asks for.
            shift = -beta / (2 * alpha)

            def transform(z):
                return None if z is None else z - shift

        else:
            disc = mp.sqrt(alpha**2 + beta * gamma)
            p = (alpha + disc) / gamma
            q = (alpha - disc) / gamma

            def transform(z):
                if z is None:
                    return mp.mpc(1)
                den = z - q
                if den == 0:
                    return None
                return (z - p) / den

        images = [transform(z) for z in pts]
        cap = mp.mpf(10) ** 20
        for t in images:
            if t is None or abs(t) > cap or abs(t) < 1 / cap:
                raise DegenerateTransform(
                    "normalization pushed a root onto 0 or infinity"
                )
        squared = []
        for i, j in witness.pairing:
            squared.append(-images[i] * images[j])
        w1, w2, w3 = squared
        e1 = w1 + w2 + w3
        e2 = w1 * w2 + w1 * w3 + w2 * w3
        e3 = w1 * w2 * w3
        if abs(e3) < 1 / cap:
            raise DegenerateTransform("squared image product collapsed to zero")
        mu2 = mp.power(-e3, mp.mpf(1) / 3)
        a = _realify(-e1 / mu2, bits)
        b = _realify(e2 / mu2**2, bits)
        return NormalForm(
            A=a, B=b, cubic=(mp.mpf(1), b, a, mp.mpf(1)), quartic=(mp.mpf(0), mp.mpf(1), b, a, mp.mpf(1))
        )


def v4_normal_form(
    curve: Genus2Curve,
    witness: InvolutionWitness,
    tol: float = DEFAULT_INVOLUTION_TOL,
    precision: Optional[int] = None,
) -> NormalForm:
    bits = precision_bits(precision)
    if witness.residual > tol:
        raise ValueError("witness residual above tolerance")
    return _normal_form_from_coeffs(curve.sextic.coeffs, witness, bits)


@dataclass(frozen=True)
class NumericUV:
    u: object
    v: object
    residual: float

    def to_json(self) -> dict:
        return {
            "u": mp.nstr(self.u, 17),
            "v": mp.nstr(self.v, 17),
            "residual": float(self.residual),
        }


_UV_CALIBRATED = False


def _uv_from_normal_form(nf: NormalForm, bits: int) -> tuple:
    with mp.workprec(bits + 16):
        u = _realify(nf.A * nf.B, bits)
        v = _realify(nf.A**3 + nf.B**3, bits)
    return u, v


def _ensure_uv_calibration() -> None:
    # Contract: the (u, v) convention u = AB, v = A^3 + B^3 must reproduce
    # (9, -754/5) on the calibration curve before any result is reported.
    global _UV_CALIBRATED
    if _UV_CALIBRATED:
        return
    bits = DEFAULT_PRECISION_BITS
    witness, residual = best_involution_candidate(_CALIBRATION_SEXTIC, precision=bits)
    if witness is None or residual > DEFAULT_REL_TOL:
        raise CalibrationFailure(
            f"no involution on the calibration curve (residual {residual})"
        )
    nf = _normal_form_from_coeffs(_CALIBRATION_SEXTIC, witness, bits)
    u, v = _uv_from_normal_form(nf, bits)
    with mp.workprec(bits + 16):
        eu, ev = (_to_mp(t) for t in _CALIBRATION_UV)
        err = max(abs(u - eu) / (1 + abs(eu)), abs(v - ev) / (1 + abs(ev)))
    if err > DEFAULT_REL_TOL:
        raise CalibrationFailure(
            "convention u=AB, v=A^3+B^3 gave (%s, %s), expected (9, -754/5)"
            % (mp.nstr(u, 17), mp.nstr(v, 17))
        )
    _UV_CALIBRATED = True


def uv_numeric_from_coeffs(
    coeffs: Sequence,
    witness: InvolutionWitness,
    precision: Optional[int] = None,
) -> NumericUV:
    bits = precision_bits(precision)
    _ensure_uv_calibration()
    nf = _normal_form_from_coeffs(coeffs, witness, bits)
    u, v = _uv_from_normal_form(nf, bits)
    return NumericUV(u=u, v=v, residual=witness.residual)


def uv_numeric(
    curve: Genus2Curve,
    tol: float = DEFAULT_INVOLUTION_TOL,
    witness: Optional[InvolutionWitness] = None,
    precision: Optional[int] = None,
) -> NumericUV:
    """Numeric (u, v) for a curve with a detected involution."""
    if witness is None:
        witness = detect_involution(curve, tol=tol, precision=precision)
        if witness is None:
            raise ValueError("no involution within tolerance; (u, v) undefined")
    return uv_numeric_from_coeffs(curve.sextic.coeffs, witness, precision=precision)


# ---------------------------------------------------------------------------
# Subcover j-invariants

def _j_cubic_numeric(cs, bits: int):
    # y^2 = c3 x^3 + c2 x^2 + c1 x + c0, complex coefficients allowed.
    c0, c1, c2, c3 = cs
    a2 = c2
    a4 = c1 * c3
    a6 = c0 * c3**2
    b2 = 4 * a2
    b4 = 2 * a4
    b6 = 4 * a6
    b8 = 4 * a2 * a6 - a4**2
    disc = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    scale = max(abs(b2) ** 2 * abs(b8), abs(b4) ** 3, abs(b6) ** 2, mp.mpf(1))
    if abs(disc) <= mp.mpf(2) ** (-(bits // 2)) * scale:
        raise SingularCubic("cubic quotient is singular")
    c4 = b2**2 - 24 * b4
    return c4**3 / disc


def _j_quartic_numeric(cs, bits: int):
    # y^2 = quartic, ascending complex coefficients.
    e, d, c, b, a = cs
    i = 12 * a * e - 3 * b * d + c**2
    j = 72 * a * c * e - 27 * a * d**2 - 27 * b**2 * e + 9 * b * c * d - 2 * c**3
    den = 4 * i**3 - j**2
    scale = max(abs(i) ** 3, abs(j) ** 2, mp.mpf(1))
    if abs(den) <= mp.mpf(2) ** (-(bits // 2)) * scale:
        raise SingularQuartic("quartic quotient is singular")
    return 1728 * 4 * i**3 / den


def subcover_js_from_coeffs(
    coeffs: Sequence,
    witness: InvolutionWitness,
    precision: Optional[int] = None,
) -> tuple:
    bits = precision_bits(precision)
    nf = _normal_form_from_coeffs(coeffs, witness, bits)
    with mp.workprec(bits + 16):
        ja = _j_cubic_numeric(nf.cubic, bits)
        jb = _j_quartic_numeric(list(nf.quartic), bits)
        ja, jb = (_realify(ja, bits), _realify(jb, bits))
        pair = sorted(
            [ja, jb],
            key=lambda z: (round(float(mp.re(z)), 10), round(float(mp.im(z)), 10)),
        )
    return pair[0], pair[1]


def subcover_js(
    curve: Genus2Curve,
    witness: InvolutionWitness,
    tol: float = DEFAULT_INVOLUTION_TOL,
    precision: Optional[int] = None,
) -> tuple:
    """j-invariants of the two degree-2 quotients, order-normalized."""
    if witness.residual > tol:
        raise ValueError("witness residual above tolerance")
    return subcover_js_from_coeffs(curve.sextic.coeffs, witness, precision=precision)


# ---------------------------------------------------------------------------
# Classical genus-2 invariants from root differences

# Constants making the three scale-free ratios match the exact absolute
# invariants; solved once against the calibration curve (raw ratios came
# out -1/15, -1/20, 1/194400 there) and frozen. The ratios are taken over
# the root-difference invariants directly, not over their J-combinations.
# The self-test below re-derives the anchor on every suite run.
_IGUSA_C1 = Fraction(144)
_IGUSA_C2 = Fraction(-1728)
_IGUSA_C3 = Fraction(486)


@dataclass(frozen=True)
class IgusaInvariants:
    J2: object
    J4: object
    J6: object
    J10: object
    i1: object
    i2: object
    i3: object

    def to_json(self) -> dict:
        return {
            "J2": mp.nstr(self.J2, 17),
            "J4": mp.nstr(self.J4, 17),
            "J6": mp.nstr(self.J6, 17),
            "J10": mp.nstr(self.J10, 17),
            "i1": mp.nstr(self.i1, 17),
            "i2": mp.nstr(self.i2, 17),
            "i3": mp.nstr(self.i3, 17),
        }


_TRIPLE_SPLITS = tuple(
    ((0,) + rest, tuple(sorted(set(range(1, 6)) - set(rest))))
    for rest in itertools.combinations(range(1, 6), 2)
)


def _igusa_from_coeffs(coeffs: Sequence, bits: int) -> IgusaInvariants:
    finite = _roots_list(coeffs, bits)
    with mp.workprec(bits + 16):
        cs = [_to_mp(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        lead = cs[-1]
        pts: list = list(finite)
        if len(pts) == 5:
            pts.append(None)

        def diff2(i, j):
            if pts[i] is None or pts[j] is None:
                return mp.mpf(1)
            return (pts[i] - pts[j]) ** 2

        total_a = mp.mpf(0)
        for pairing in _PAIRINGS6:
            term = mp.mpf(1)
            for i, j in pairing:
                term *= diff2(i, j)
            total_a += term
        total_b = mp.mpf(0)
        for t1, t2 in _TRIPLE_SPLITS:
            term = mp.mpf(1)
            for tri in (t1, t2):
                term *= diff2(tri[0], tri[1]) * diff2(tri[1], tri[2]) * diff2(tri[0], tri[2])
            total_b += term
        total_c = mp.mpf(0)
        for t1, t2 in _TRIPLE_SPLITS:
            base = mp.mpf(1)
            for tri in (t1, t2):
                base *= diff2(tri[0], tri[1]) * diff2(tri[1], tri[2]) * diff2(tri[0], tri[2])
            for perm in itertools.permutations(t2):
                cross = mp.mpf(1)
                for i, j in zip(t1, perm):
                    cross *= diff2(i, j)
                total_c += base * cross
        total_d = mp.mpf(1)
        for i in range(6):
            for j in range(i + 1, 6):
                total_d *= diff2(i, j)

        big_a = lead**2 * total_a
        big_b = lead**4 * total_b
        big_c = lead**6 * total_c
        big_d = lead**10 * total_d

        j2 = big_a / 8
        j4 = (4 * j2**2 - big_b) / 96
        j6 = (8 * j2**3 - 160 * j2 * j4 - big_c) / 576
        j10 = big_d / 4096
        if abs(j2) <= mp.mpf(2) ** (-(bits // 2)) * (1 + abs(big_a)):
            raise J2Vanishes("J2 vanishes; absolute invariants undefined")
        i1 = _to_mp(_IGUSA_C1) * big_b / big_a**2
        i2 = _to_mp(_IGUSA_C2) * (big_a * big_b - 3 * big_c) / big_a**3
        i3 = _to_mp(_IGUSA_C3) * big_d / big_a**5
        return IgusaInvariants(
            J2=_realify(j2, bits),
            J4=_realify(j4, bits),
            J6=_realify(j6, bits),
            J10=_realify(j10, bits),
            i1=_realify(i1, bits),
            i2=_realify(i2, bits),
            i3=_realify(i3, bits),
        )


def igusa_invariants(
    curve: Genus2Curve, precision: Optional[int] = None
) -> IgusaInvariants:
    """Even-degree classical invariants from root differences, plus the
    three calibrated scale-free ratios."""
    bits = precision_bits(precision)
    return _igusa_from_coeffs(curve.sextic.coeffs, bits)


def igusa_calibration_check(precision: Optional[int] = None) -> None:
    """Self-test for the frozen ratio constants: the calibration curve must
    reproduce (-48/5, 432/5, 1/400) to working accuracy."""
    bits = precision_bits(precision)
    inv = _igusa_from_coeffs(_CALIBRATION_SEXTIC, bits)
    expected = (Fraction(-48, 5), Fraction(432, 5), Fraction(1, 400))
    with mp.workprec(bits + 16):
        tol = mp.mpf(2) ** (-(bits - 24))
        for got, want in zip((inv.i1, inv.i2, inv.i3), expected):
            w = _to_mp(want)
            if abs(got - w) > tol * (1 + abs(w)):
                raise CalibrationFailure(
                    "absolute-invariant constants drifted: got %s, expected %s"
                    % (mp.nstr(got, 30), want)
                )


# ---------------------------------------------------------------------------
# Lifting an invariant point to coefficients

def lift_point(p: DihedralPoint, precision: Optional[int] = None) -> tuple:
    """A (generally complex) coefficient triple (a, b, c) with the given
    invariants. Requires the scale factor s4 + 2 s2^2 to be nonzero; on
    that stratum the middle coefficient is not a function of the point."""
    bits = precision_bits(precision)
    with mp.workprec(bits + 16):
        s2, s3, s4 = (_to_mp(t) for t in (p.s2, p.s3, p.s4))
        m = s4 + 2 * s2**2
        if m == 0:
            raise ValueError("scale factor vanishes; lift is not determined")
        w = mp.sqrt(m)
        inner = mp.sqrt(s4 - 2 * s2**2)
        asq = (w + inner) / 2
        csq = (w - inner) / 2
        if abs(asq) < abs(csq):
            asq, csq = csq, asq
        a = mp.sqrt(asq)
        c = s2 / a if a != 0 else mp.sqrt(csq)
        b = s3 / w
        return a, b, c
