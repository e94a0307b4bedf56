"""Reference values computed without the program under test.

Nothing here imports latticesec. Every value the benchmark checks an
output against comes from one of these sources:

- extremal even unimodular secrecy polynomials, built from the
  q-expansions of E4 and Delta (integer arithmetic) and expanded in
  z over Fractions;
- root counts of those polynomials from sympy;
- z(y) = (theta2 theta4 / theta3^2)^4 from mpmath.jtheta, evaluated at
  a working precision that covers the cancellation in theta4;
- confusion sums S = D^(3/2) sum |N(beta_z)|^-3 from integer field norms
  (determinants of integer multiplication matrices), with ball
  membership and carve order decided on integer trace-form energies.

Run as a script it rebuilds `reference.json`, the values that are too
slow to recompute on every benchmark run:

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REFERENCE_PATH = HERE / "reference.json"


# ---------------------------------------------------------------------------
# extremal even unimodular secrecy polynomials

def _series_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        if x:
            for j, y in enumerate(b[:order + 1 - i]):
                out[i + j] += x * y
    return out


def _series_pow(a: list[int], e: int, order: int) -> list[int]:
    out = [1] + [0] * order
    for _ in range(e):
        out = _series_mul(out, a, order)
    return out


def _e4(order: int) -> list[int]:
    sigma3 = [sum(d ** 3 for d in range(1, k + 1) if k % d == 0)
              for k in range(order + 1)]
    return [1] + [240 * sigma3[k] for k in range(1, order + 1)]


def _delta(order: int) -> list[int]:
    """q * prod_{k>=1} (1 - q^k)^24 up to q^order."""
    prod = [1] + [0] * order
    for k in range(1, order + 1):
        factor = [1] + [0] * order
        factor[k] = -1
        prod = _series_mul(prod, _series_pow(factor, 24, order), order)
    return [0] + prod[:order]


def extremal_b(dim: int) -> tuple[int, int, tuple[int, ...]]:
    """(m, k, b) of the extremal theta series
    sum_j b_j E4^(3(m-j)+k) Delta^j, dim = 24m + 8k, b_0 = 1, whose
    q^1..q^m coefficients vanish."""
    m, rest = divmod(dim, 24)
    k = rest // 8
    if dim <= 0 or rest % 8:
        raise ValueError("dimension must be a positive multiple of 8")
    e4, delta = _e4(m), _delta(m)
    parts = [_series_mul(_series_pow(e4, 3 * (m - j) + k, m),
                         _series_pow(delta, j, m), m) for j in range(m + 1)]
    b = [1]
    for i in range(1, m + 1):
        # parts[i] starts with q^i, so b_i alone can cancel q^i.
        b.append(-sum(b[j] * parts[j][i] for j in range(i)))
    return m, k, tuple(b[1:])


def zpoly_coeffs(m: int, k: int, b) -> list[Fraction]:
    """Coefficients, constant first, of
    P(z) = sum_j b_j (1-z)^(3(m-j)+k) (z^2/256)^j with b_0 = 1."""
    coeffs = [Fraction(0)] * (3 * m + k + 1)
    for j, bj in enumerate((1, *b)):
        e = 3 * (m - j) + k
        scale = Fraction(bj, 256 ** j)
        for i in range(e + 1):
            coeffs[2 * j + i] += scale * math.comb(e, i) * (-1) ** i
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs) -> list[Fraction]:
    return [i * c for i, c in enumerate(coeffs) if i]


def root_counts(coeffs) -> dict:
    """sympy's verdict on P over [0, 1/4]: `holds` (Q = P - P(1/4) is
    positive at 0 and has no root in (0, 1/4)), the number of distinct
    roots of Q and of P' in the open interval."""
    import sympy

    x = sympy.Symbol("x")
    quarter = sympy.Rational(1, 4)

    def poly(cs):
        return sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                          for c in cs])), x, domain="QQ")

    def open_count(p):
        closed = p.count_roots(0, quarter)
        return int(closed) - sum(1 for end in (0, quarter) if p.eval(end) == 0)

    p = poly(coeffs)
    q = p - p.eval(quarter)
    interior = open_count(q)
    return {"holds": bool(q.eval(0) > 0 and interior == 0),
            "interior_q_roots": interior,
            "critical_points": open_count(p.diff(x))}


# ---------------------------------------------------------------------------
# z(y) from mpmath

def z_reference(y: float) -> str:
    """z(y) to 25 significant digits, as a decimal string (it may lie far
    below the double range)."""
    import mpmath

    # theta4(yi) ~ 2 y^-1/2 exp(-pi/(4y)) cancels from 1 to about
    # 10^(-0.35/y); carry that many digits beyond the 40 kept.
    dps = 40 + (math.ceil(0.35 / y) if y < 1 else 0)
    with mpmath.workdps(dps):
        q = mpmath.exp(-mpmath.pi * mpmath.mpf(y))
        t2, t3, t4 = (mpmath.jtheta(k, 0, q) for k in (2, 3, 4))
        return mpmath.nstr((t2 * t4 / t3 ** 2) ** 4, 25)


# ---------------------------------------------------------------------------
# integer norm forms of lambda1..3

_INT64_SAFE_ENTRY = int(((2 ** 63 - 1) // 24) ** 0.25)


def _det4(a: np.ndarray) -> np.ndarray:
    """Exact int64 determinants of a stack of 4x4 matrices (cofactor
    expansion along the first row, then along the first row of each minor)."""
    if a.size and int(np.abs(a).max()) > _INT64_SAFE_ENTRY:
        raise OverflowError("entries too large for an exact int64 determinant")
    total = np.zeros(a.shape[0], dtype=np.int64)
    for col in range(4):
        rest = [c for c in range(4) if c != col]
        m = a[:, 1:, rest]
        minor = (m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
                 - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
                 + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0]))
        total += (-1) ** col * a[:, 0, col] * minor
    return total


def _field_norms(min_poly, basis):
    """z -> N(sum_i z_i b_i) in Z[x]/(min_poly), b_i given on the power
    basis: the determinant of the multiplication matrix."""
    n = len(min_poly) - 1
    companion = np.zeros((n, n), dtype=np.int64)
    companion[np.arange(n - 1), np.arange(1, n)] = 1
    companion[n - 1] = [-c for c in min_poly[:n]]
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ companion)
    powers = np.stack(powers)
    basis = np.asarray(basis, dtype=np.int64)
    return lambda z: _det4(np.einsum("ki,irc->krc", z @ basis, powers))


def _lambda2_norms(z: np.ndarray) -> np.ndarray:
    """Generator row 2i+l pairs {1, 1+sqrt2}[i] with {1, theta}[l],
    theta = (1+sqrt5)/2, so beta = g0 + g1 (1 + sqrt2), g_i = z_2i +
    z_2i+1 theta. N(beta) = N_Q(sqrt5)(p^2 - 2 q^2), p = g0 + g1, q = g1."""
    a, b = (z[:, 0:2] + z[:, 2:4]).T
    c, d = z[:, 2], z[:, 3]
    e = a * a + b * b - 2 * (c * c + d * d)        # p^2 - 2q^2 = e + f theta
    f = 2 * a * b + b * b - 2 * (2 * c * d + d * d)
    return e * e + e * f - f * f


# name -> (norms, integer Gram of the energy form, D with prod|x_i| =
# |N| D^-1/2, E with ||x||^2 = q E^-1/4)
NORM_FORMS = {
    # the trace-form norm-one basis of Z[delta] that lambda1's rows embed
    "lambda1": (_field_norms((1, 1, -3, -1, 1),
                             ((0, 1, 0, 0), (1, -2, -1, 1), (1, 0, -1, 0),
                              (1, 0, 0, 0))),
                np.eye(4, dtype=np.int64), 725, 1),
    "lambda2": (_lambda2_norms, np.eye(4, dtype=np.int64), 40 ** 2, 1),
    "lambda3": (_field_norms((1, 4, -4, -1, 1), np.eye(4, dtype=np.int64)),
                np.array([[4, 1, 9, 1], [1, 9, 1, 29], [9, 1, 29, -4],
                          [1, 29, -4, 99]], dtype=np.int64),
                1125, 1125),
}


def _slices(m: int):
    """{-m..m}^4 in lexicographic order, one leading coefficient at a time."""
    r = np.arange(-m, m + 1, dtype=np.int64)
    rest = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    for z1 in range(-m, m + 1):
        yield np.concatenate([np.full((len(rest), 1), z1, dtype=np.int64), rest],
                             axis=1)


def _energy_cap(p_lim: float, energy_disc: int) -> int:
    """Largest integer q with q * E^-1/4 <= p_lim, i.e. q^4 <= E p^4,
    decided on the exact rational value of the float p_lim."""
    p = Fraction(p_lim)
    bound = energy_disc * p ** 4
    q = math.isqrt(math.isqrt(math.floor(bound)))
    while (q + 1) ** 4 <= bound:
        q += 1
    return q


def _codebook_chunks(lattice: str, m: int, p_lim, target_size):
    """(z, q) blocks of the codebook, q the integer energies."""
    _, gram, _, energy_disc = NORM_FORMS[lattice]
    if target_size is not None:
        z = np.concatenate(list(_slices(m)))
        q = np.einsum("ki,ij,kj->k", z, gram, z)
        # z is in lexicographic order, so a stable sort on q is (q, lex).
        keep = np.argsort(q, kind="stable")[:target_size]
        yield z[keep], q[keep]
        return
    cap = None if p_lim is None else _energy_cap(p_lim, energy_disc)
    for z in _slices(m):
        q = np.einsum("ki,ij,kj->k", z, gram, z)
        if cap is not None:
            z, q = z[q <= cap], q[q <= cap]
        yield z, q


def shipped_generator(lattice: str) -> np.ndarray:
    """The program's float generator, read from its data file."""
    path = HERE.parent / "src" / "latticesec" / "data" / ("%s.json" % lattice)
    return np.array(json.loads(path.read_text())["generator"], dtype=float)


# A float generator entry may be off by this many units in the last place
# (selftest.py holds the shipped matrices to it); z @ M adds at most 4 more.
GENERATOR_ULPS = 32
UNIT_ROUNDOFF = 2.0 ** -53


def codebook_reference(lattice: str, m: int, p_lim: float | None = None,
                       target_size: int | None = None) -> dict:
    """Exact size and energies, and S from integer norms, of the m-box
    codebook capped at p_lim, or of its target_size words that come first
    in (energy, lexicographic z) order, or of the whole box.

    `s_rel_tol` bounds, to first order, the relative error of S computed
    from a float generator whose entries are within GENERATOR_ULPS: each
    coordinate x_i moves by at most (GENERATOR_ULPS + 4) u sum_j |z_j M_ji|,
    so a term prod |x_i|^-3 by 3 sum_i of that over |x_i|. The shipped
    generator serves only as the magnitudes |M_ji| and |x_i| here."""
    norms_of, _, norm_disc, energy_disc = NORM_FORMS[lattice]
    gen = shipped_generator(lattice)
    counts: dict[int, int] = {}
    size = q_max = q_sum = 0
    weighted = []
    for z, q in _codebook_chunks(lattice, m, p_lim, target_size):
        size += len(z)
        q_sum += int(q.sum())
        z = z[np.any(z != 0, axis=1)]
        if not len(z):
            continue
        q_max = max(q_max, int(q.max()))
        norms = np.abs(norms_of(z))
        if not norms.all():
            raise ZeroDivisionError("a nonzero codeword has field norm 0")
        vals, cnt = np.unique(norms, return_counts=True)
        for v, c in zip(vals.tolist(), cnt.tolist()):
            counts[v] = counts.get(v, 0) + c
        spread = np.sum((np.abs(z) @ np.abs(gen)) / np.abs(z @ gen), axis=1)
        weighted.append(math.fsum(spread / norms.astype(float) ** 3))
    # Python's int / int division rounds correctly; fsum adds exactly.
    inv_cube = math.fsum(c / v ** 3 for v, c in counts.items())
    sensitivity = math.fsum(weighted) / inv_cube
    scale = energy_disc ** -0.25
    return {"size": size, "p_max": q_max * scale,
            "p_ave": q_sum / size * scale,
            "s_value": inv_cube * norm_disc ** 1.5,
            "s_rel_tol": (3 * (GENERATOR_ULPS + 4) * sensitivity + 16) * UNIT_ROUNDOFF}


# ---------------------------------------------------------------------------
# the stored reference file

def build_reference() -> dict:
    return {
        "certificates": {key: root_counts(zpoly_coeffs(*spec))
                         for key, spec in workloads.certified_polynomials()},
        "z": [z_reference(y) for y in workloads.curve_grid()],
        "sums": {workloads.sum_key(cfg): codebook_reference(**cfg)
                 for cfg in workloads.sum_configurations()},
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def main() -> int:
    ref = build_reference()
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print("wrote %s: %d certificates, %d z values, %d sums"
          % (REFERENCE_PATH, len(ref["certificates"]), len(ref["z"]),
             len(ref["sums"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
