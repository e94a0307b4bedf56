"""Finite codebooks and truncated inverse norm power sums.

Codewords are lattice points x = z M with integer coefficient vectors z
ranging over the box {-m..m}^n, optionally intersected with the energy
ball ||x||^2 <= p_lim or carved down to the lowest-energy subset of a
target size. M passes the GeneratorMatrix checks, as a plain array
too. The eavesdropper-confusion metric is

    S = sum over included nonzero x of prod_i |x_i|^(-exponent)

(the inverse norm power sum; exponent 3 corresponds to the fast-fading
correct-decision probability). The sums span many orders of magnitude,
so S is the exact sum of every included word's term, rounded once.
_ExactSum does that for nonnegative values with integer mantissa parts
binned by exponent, merged block by block, the few values of 2^997 and
more set aside, without a Python float per term; no order or split of
the words enters S. The energy is rounded before S, so an energy that
overflows raises first. An infinite term makes S inf; finite terms or
norms whose sum overflows raise OverflowError.

One rule decides every codebook. Each z has a key, and the rule (cut,
left) keeps the z keyed below cut and, of those keyed cut, all (left
None) or the lex-first left: a sum all at the cap of p_lim, a carve
the target_size lowest in (key, lex) order. The energies are the kept
keys. A generator that carries its integer form F (the catalogued
lattices do) is a _Codebook, keyed by its exact energy q = z F z^T,
capped at q_cap = max{q : q^n <= det(F) p_lim^n}, decided in Fraction:
no float rounding decides which words it keeps, and p_max is
q_max det(F)^(-1/n) and p_ave (sum q / size) det(F)^(-1/n), each
correctly rounded once (_rounded). A plain array is a _Scan of the
whole box, keyed by the float norms ||x||^2 of its words, the zero
word first; p_max and p_ave are the kept norms' largest and exact mean.

Every word, and a plain array's norm, is one formula in IEEE column
arithmetic,

    x_j = ((z_2 M_2j + z_3 M_3j) + ... + z_n M_nj) + z_1 M_1j,
    ||x||^2 = ((x_1^2 + x_2^2) + ...) + x_n^2,

each step one correctly rounded ufunc on a column of a column-major
block, so no BLAS or SIMD kernel decides a bit. Its first part, the
rest sum of r = (z_2, ..., z_n), is taken once per rest vector.

The codebook is symmetric under x -> -x, and the fold uses it exactly.
IEEE negation is exact and rounding is symmetric, so the formula is
odd: the word of -z is minus the word of z bit for bit, up to the sign
of a zero coordinate, which abs and squaring erase, so -z has the key,
term and energy of z. Half the codebook is computed and each of its
words counts twice, exactly: the exact sums are doubled before their
one rounding. The zero word counts once and has no term; a carve's
lex-first left words keyed cut, which need not come in pairs, count
once each. A diversity failure is reported at the lex-first offending
coefficient vector of the codebook, either sign.

Every codebook's half is the rest vectors r <lex 0 with every z_1,
then r = 0 with z_1 >= 1. A scan, and a _Codebook whose rule keeps the
whole box (cut at box_top or above, left None), read it
rest-block-major: the rest vectors below zero come in blocks of _BLOCK
rows of the rest box {-m..m}^(n-1), each block's rest sums are taken
once, and each z1 = -m..m adds z1 M_1j to them, one word block per z1;
no array of (2m+1)^(n-1) rows is built. A scan's carve reads it once
more, first, for its cut, into one array of the half's norms.

Else a _Codebook's half is rest-vector-major. The walker each generator
builds once (GeneratorMatrix.walker, Fincke-Pohst over F with z_1
walked last) streams the rest vectors r in lex order, each with its
run of exactly the z_1 keyed within the cut, in the walker's groups of
about a thousand rest vectors (numfields._GROUP). Each run comes with
its exact q = A_r + z_1 (2 b_r + F_11 z_1), A_r = r F_rest r^T and
b_r = sum_j F_1j r_j, and no key of a word is computed. A carve bins
the keys of the walk at a growing radius with np.bincount to find its
cut and left; its words keyed cut are run ends (q is strictly convex
in z_1), gathered, sorted in lex order with their negations, and the
first left kept. A group's rest sums are taken once; its runs are then
split into blocks of at most _BLOCK words, each made in fixed scratch,
the sum of q over its runs taken in closed form and its largest q at
their ends. So no array grows with the ball beyond the walker's groups.
Every row's arithmetic is its own, so the bits depend neither on the
block size nor on the group size.

Reported statistics: size counts every included codeword (the zero word
too, matching the catalogued codebook sizes); p_max is the maximum
squared norm over nonzero codewords; p_ave averages squared norms over
all included codewords including zero. For lambda1 and lambda2 (F = I)
they are the catalogued orthogonal-box values 4m^2 and the float
nearest 4m(m+1)/3 exactly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np

from .errors import DiversityError, DomainError, positive_int
from .numfields import GeneratorMatrix, _box, _box_rows, _values

DIVERSITY_EPS = 1e-12


@dataclass(frozen=True)
class SumReport:
    """One (m, p_lim | target_size) configuration's sum and energy stats."""

    lattice_name: str
    n: int
    m: int
    p_lim: float
    size: int
    p_max: float
    p_ave: float
    s_value: float
    exponent: int = 3
    target_size: int | None = None

    def __post_init__(self):
        if math.isfinite(self.p_lim) and self.p_max > self.p_lim:
            raise DomainError("p_max exceeds the configured p_lim")
        # A sum of positive terms can still underflow to 0.0.
        if not self.s_value >= 0:
            raise DomainError("s_value must be nonnegative")


@dataclass(frozen=True)
class TableRow:
    """Sweep configuration: a box bound plus energy cap or target size."""

    m: int
    p_lim: float = math.inf
    target_size: int | None = None

    def __post_init__(self):
        if self.target_size is not None and math.isfinite(self.p_lim):
            raise DomainError("p_lim and target_size are exclusive")


def _check_box_args(m: int, p_lim: float, exponent: int) -> tuple[int, int]:
    """(m, exponent) as Python ints, once both and p_lim are checked."""
    m = positive_int(m, "box bound m")
    if not (p_lim > 0):
        raise DomainError("p_lim must be positive")
    return m, positive_int(exponent, "exponent")


def _as_generator(gen: GeneratorMatrix | np.ndarray) -> GeneratorMatrix:
    """gen, or a plain array made a GeneratorMatrix without a form: square
    and finite, with a finite nonzero determinant and Gram matrix."""
    return gen if isinstance(gen, GeneratorMatrix) else GeneratorMatrix(gen)


# Rows per block. A block of words is 256 KB at n = 4, so it stays in
# L2 through a block's passes over it.
_BLOCK = 8192


def _rounded(a: int, b: int, det: Fraction, n: int) -> float:
    """The float nearest (a / b) det^(-1/n), for integers a >= 0, b > 0
    and det > 0. If det is an n-th power r^n, that is a / (b r), rounded
    by Fraction. Else the value is irrational, so never a midpoint of two
    floats, and the float whose midpoints with its neighbours bracket it
    is found by comparing their n-th powers with (a / b)^n / det."""
    root = round(float(det) ** (1 / n))
    if root ** n == det:
        return float(Fraction(a, b * root))
    power = Fraction(a, b) ** n / det

    def mid(f: float, toward: float) -> Fraction:
        return (Fraction(f) + Fraction(math.nextafter(f, toward))) / 2

    f = float(Fraction(a, b)) * float(det) ** (-1 / n)
    while mid(f, math.inf) ** n < power:
        f = math.nextafter(f, math.inf)
    while mid(f, 0.0) ** n > power:
        f = math.nextafter(f, 0.0)
    return f


def _lex_first(bad, absx: np.ndarray, coeffs, mirrored: bool):
    """The lex-first of bad and the words of a block with a coordinate
    below DIVERSITY_EPS, and with mirrored their negations too, as
    (coefficient vector, coordinate, |value|); coeffs(rows) gives the
    coefficient vectors of rows of the block. The word of -z is minus
    the word of z, so the two share the coordinate and the value."""
    rows = np.flatnonzero((absx < DIVERSITY_EPS).any(axis=1))
    z = np.asarray(coeffs(rows)).astype(np.int64)
    order = np.lexsort(z.T[::-1])
    picks = [(z[order[0]], rows[order[0]])]
    if mirrored:
        picks.append((-z[order[-1]], rows[order[-1]]))
    for v, row in picks:
        coord = int(np.argmin(absx[row]))
        found = (tuple(int(x) for x in v), coord, float(absx[row, coord]))
        if bad is None or found[0] < bad[0]:
            bad = found
    return bad


def _coeffs(r: np.ndarray, count: np.ndarray, z1: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The int64 coefficient vectors (z1[i], r[k]) of rows i of a block
    whose rows come count[k] to each rest vector r[k] in turn."""
    parent = np.repeat(np.arange(len(count)), count)
    return np.column_stack((z1[rows], r[parent[rows]])).astype(np.int64)


def _blocks(lo: np.ndarray, runs: np.ndarray):
    """(k, lo, runs) per block of at most _BLOCK words of a walker group's
    runs lo..lo+runs-1, in order: the block holds the slice k of the
    group's runs, the first and last cut where the block starts or ends
    inside them."""
    end = np.cumsum(runs)
    start = end - runs
    total = int(end[-1]) if len(end) else 0
    for s in range(0, total, _BLOCK):
        e = min(s + _BLOCK, total)
        i, j = int(np.searchsorted(end, s, "right")), int(np.searchsorted(start, e))
        a, b = lo[i:j].copy(), runs[i:j].copy()
        a[0] += s - start[i]
        b[0] -= s - start[i]
        b[-1] -= end[j - 1] - e
        yield slice(i, j), a, b


def _run_keys(A: np.ndarray, b2: np.ndarray, f: int, a: np.ndarray,
              count: np.ndarray) -> tuple[int, int]:
    """(largest, sum) of the exact q = A + z1 (b2 + f z1) over the
    nonempty runs z1 = a..a+count-1: q is convex in z1, so its largest is
    at a run's ends, and q(a + t) = q(a) + t (b2 + 2 f a) + f t^2, summed
    over t = 0..count-1."""
    e = a + count - 1
    qa, qe = A + a * (b2 + f * a), A + e * (b2 + f * e)
    pairs = count * (count - 1)
    return (int(np.maximum(qa, qe).max()),
            int((count * qa + (b2 + 2 * f * a) * (pairs // 2)
                 + f * (pairs * (2 * count - 1) // 6)).sum()))


def _around_zero(r: np.ndarray) -> tuple[int, int]:
    """How many rows of lex-ascending integer rows r lie below zero in lex
    order, and how many are zero (they follow)."""
    lo, hi = 0, len(r)
    if r.shape[1] and r[-1, 0] < 0:
        return hi, 0
    for j in range(r.shape[1]):
        col = r[lo:hi, j]
        lo, hi = lo + int(np.searchsorted(col, 0)), lo + int(np.searchsorted(col, 0, "right"))
    return lo, hi - lo


class _Scratch:
    """Fixed buffers for blocks of at most _BLOCK rows of n coordinates,
    owned by one codebook: column-major words (first the products of
    _rest) and the rest sums of a block of the box or of tied words, the
    reciprocals and terms of _terms (t is also the word formula's
    product), and the bins and high parts of _ExactSum.add."""

    def __init__(self, n: int):
        self.words, self.rest = (np.empty((_BLOCK, n), order="F") for _ in range(2))
        self.r, self.t = np.empty((2, _BLOCK))
        self.bins, self.high = np.empty((2, _BLOCK), dtype=np.uint64)


# Values per flush of _ExactSum's bins: up to 2^26 parts of under 2^27
# units each keep a bin's sum below 2^53 units, so exact.
_MAX_PARTS = 1 << 26
_HIGH = 2 ** 64 - 2 ** 26  # clears the low 26 mantissa bits
# The first biased exponent that _ExactSum sets aside (values of 2^997
# and more): 2^26 high parts of a lower one sum below 2^1023.
_ASIDE = 2020


class _ExactSum:
    """The exact sum of nonnegative float64s, each counted twice, standing
    for itself and its negation, and of the extra values that result is
    given, each once, rounded once.

    Each value below 2^997 is split into its value with the low 26
    mantissa bits cleared and the remainder, both exact. Binned by biased
    exponent e, the high parts are multiples of 2^(e-1049) below
    2^(e-1022) and the low parts multiples of 2^(e-1075) below 2^(e-1049)
    (subnormals, in bin 0, scale as e = 1), so np.bincount adds each
    block's bins exactly, and so does merging them into the running bins,
    which go to a list of parts every _MAX_PARTS values; no bin can
    overflow. Values of 2^997 and more are set aside: a finite one is a
    part as it is, an infinite one sets infinite. The parts sum to the
    exact total of the finite values, and math.fsum of them, each twice,
    and of the finite extra values rounds it once; near the largest
    double, where fsum's partials can overflow, Fraction decides. Values
    that are all zeros leave no parts, and the sum is +0.0.
    """

    def __init__(self, scratch: _Scratch):
        self.scratch, self.infinite = scratch, False
        self.parts = []
        self.hi = self.lo = None
        self.count = 0

    def add(self, values: np.ndarray) -> None:
        """Add a block of at most _BLOCK (and _MAX_PARTS) nonnegative
        float64s, +inf allowed."""
        k = len(values)
        if self.count and self.count + k > _MAX_PARTS:
            self._flush()
        self.count += k
        bits = values.view(np.uint64)
        bins = np.right_shift(bits, 52, out=self.scratch.bins[:k]).view(np.int64)
        high = np.bitwise_and(bits, np.uint64(_HIGH), out=self.scratch.high[:k]).view(np.float64)
        hi = np.bincount(bins, high)
        if len(hi) > _ASIDE:  # set aside, and out of the bins
            aside = bins >= _ASIDE
            big = values[aside]
            self.infinite |= bool(np.isinf(big).any())
            self.parts += big[np.isfinite(big)].tolist()
            high[aside] = 0.0
            hi = hi[:_ASIDE]
        lo = np.bincount(bins, np.subtract(values, high, out=high))[:_ASIDE]
        if self.hi is None:
            self.hi, self.lo = hi, lo
        else:
            if len(hi) > len(self.hi):
                self.hi, self.lo, hi, lo = hi, lo, self.hi, self.lo
            self.hi[:len(hi)] += hi
            self.lo[:len(lo)] += lo

    def _flush(self) -> None:
        self.parts += self.hi[self.hi != 0].tolist()
        self.parts += self.lo[self.lo != 0].tolist()
        self.hi = self.lo = None
        self.count = 0

    def result(self, extra: list) -> float:
        """The exact sum of the finite values, each twice, and of the finite
        extra values, rounded once; OverflowError if it rounds past the
        largest double."""
        if self.hi is not None:
            self._flush()
        parts = self.parts * 2 + [v for v in extra if v < math.inf]
        try:
            return math.fsum(parts)
        except OverflowError:
            # fsum's partials can overflow where the exact sum rounds to
            # the largest double; int / int rounds once, or raises.
            total = sum(map(Fraction, parts))
            return total.numerator / total.denominator


def _terms(absx: np.ndarray, exponent: int, r: np.ndarray,
           out: np.ndarray) -> np.ndarray:
    """prod_i |x_i|^(-exponent) per row, into out: the product
    ((a0*a1)*a2)*... and its reciprocal, into r, then r^exponent by
    left-to-right square and multiply. Every step is one correctly
    rounded IEEE operation, so the bits do not depend on the CPU's SIMD
    dispatch, as np.power's do."""
    # A large exponent, or a product of large coordinates, overflows to
    # inf quietly: the exact sum passes the one on, and 1/inf is 0.
    with np.errstate(over="ignore"):
        if absx.shape[1] == 1:
            np.copyto(r, absx[:, 0])
        else:
            np.multiply(absx[:, 0], absx[:, 1], out=r)
        for j in range(2, absx.shape[1]):
            r *= absx[:, j]
        np.divide(1.0, r, out=r)
        if exponent == 1:
            np.copyto(out, r)
        else:
            np.multiply(r, r, out=out)  # the first square
        for i, bit in enumerate(bin(exponent)[3:]):
            if i:
                out *= out
            if bit == "1":
                out *= r
    return out


def _reduce(blocks, exponent: int, scratch: _Scratch):
    """(size, s, top, energy, bad) of the words of blocks, an iterator of
    (words, keys, coeffs) blocks of at most _BLOCK rows, each word
    standing for itself and its negation: their count, the exact sum of
    their terms (an _ExactSum, unrounded), and the largest and the sum of
    their keys, which come as each block's (largest, sum), or as None.
    words is overwritten by its absolute values. bad is the lex-first
    word, either sign, with a coordinate below DIVERSITY_EPS, as
    _lex_first gives it from coeffs, or None; once there is one no term
    is taken."""
    s = _ExactSum(scratch)
    size = top = energy = 0
    bad = None
    for words, keys, coeffs in blocks:
        size += len(words)
        if keys is not None:
            top = max(top, keys[0])
            energy += keys[1]
        absx = np.abs(words, out=words)
        if float(absx.min()) < DIVERSITY_EPS:
            bad = _lex_first(bad, absx, coeffs, mirrored=True)
        elif bad is None:
            s.add(_terms(absx, exponent, scratch.r[:len(absx)], scratch.t[:len(absx)]))
    return size, s, top, energy, bad


def _norms(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The float norms of a block of words, by the word formula, into out
    or a new array. A norm may overflow to inf; the energy sum passes it
    on, or raises, as math.fsum does."""
    with np.errstate(over="ignore"):
        norms = np.multiply(words[:, 0], words[:, 0], out=out)
        for j in range(1, words.shape[1]):
            norms += words[:, j] * words[:, j]
    return norms


class _Words:
    """The word formula of a generator's entries on the box {-m..m}^n, a
    block of at most _BLOCK rows at a time in one fixed _Scratch, the
    whole box's half, and the report of a rule: it reads the blocks that
    a subclass's _half keeps and takes their energies from _energies."""

    def __init__(self, gen: GeneratorMatrix, m: int, exponent: int):
        self.M, self.m, self.exponent = gen.entries, m, exponent
        self.scratch = _Scratch(gen.n)

    def _rest(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The rest sums (z_2 M_2j + z_3 M_3j) + ... + z_n M_nj of a block
        r of at most _BLOCK rest vectors into the columns of out, all
        columns at once, with the scratch words as the products; +0.0 for
        n = 1."""
        M, t = self.M, self.scratch.words[:len(r)]
        if len(M) == 1:
            out.fill(0.0)
            return out
        np.multiply.outer(r[:, 0], M[1], out=out)
        for i in range(2, len(M)):
            np.add(out, np.multiply.outer(r[:, i - 1], M[i], out=t), out=out)
        return out

    def _words(self, rest: np.ndarray, count: np.ndarray, z1: np.ndarray) -> np.ndarray:
        """The words of the rows (z1[i], r[k]), count[k] rows for each rest
        vector r[k] in turn, by the word formula, in the scratch: z1 M_1j
        added row by row to rest, the rest sums of the r[k]."""
        words, t = self.scratch.words[:len(z1)], self.scratch.t[:len(z1)]
        for j in range(len(self.M)):
            np.add(np.repeat(rest[:, j], count), np.multiply(z1, self.M[0, j], out=t),
                   out=words[:, j])
        return words

    def _box_blocks(self):
        """(words, None, coeffs) per block of half the whole box: each block
        of _BLOCK rest vectors below zero, its rest sums taken once, with
        z1 = -m..m in turn, then the zero rest vector, the middle row of
        the rest box, with z1 = 1..m; as many slices of z1 per block of
        words as fit in _BLOCK rows. coeffs(rows) gives rows' coefficient
        vectors."""
        k, m, M1 = len(self.M) - 1, self.m, self.M[0]
        below = ((2 * m + 1) ** k - 1) // 2
        pieces = [(i, min(_BLOCK, below - i), -m) for i in range(0, below, _BLOCK)]
        for i, b, first in pieces + [(below, 1, 1)]:
            rest = self._rest(_box(k, m, i, i + b), self.scratch.rest[:b])
            per = _BLOCK // b  # slices of z1 per block of words
            for lo in range(first, m + 1, per):
                z1s = range(lo, min(lo + per, m + 1))
                words = self.scratch.words[:b * len(z1s)]
                for t, z1 in enumerate(z1s):
                    for j, x in enumerate(z1 * M1):
                        np.add(rest[:, j], x, out=words[t * b:(t + 1) * b, j])
                yield words, None, lambda rows, lo=lo, i=i, b=b: np.column_stack(
                    (lo + rows // b, _box_rows(k, m, i + rows % b)))

    def _chosen(self, left: int | None) -> np.ndarray:
        """The lex-first left of the words keyed cut that _half gathered in
        self.tied and their negations, as int64 coefficient rows (none
        where left is None)."""
        tied = np.empty((0, len(self.M)), dtype=np.int64)
        if left is None:
            return tied
        tied = np.concatenate([tied, *self.tied])
        tied = np.concatenate((tied, -tied))
        return tied[np.lexsort(tied.T[::-1])[:left]]

    def report(self, cut: float, left: int | None, lattice_name: str,
               p_lim: float = math.inf, target_size: int | None = None) -> SumReport:
        """The SumReport of the words that the rule (cut, left) keeps: half
        of them, read once, each for itself and its negation, and the
        lex-first left words keyed cut, each once. The energy is rounded
        before S, so an energy that overflows raises first."""
        size, s, top, energy, bad = _reduce(self._half(cut, left), self.exponent, self.scratch)
        tied = self._chosen(left)
        size = 2 * size + 1 + len(tied)  # the zero word counts but has no term
        p_max, p_ave = self._energies(cut, len(tied), size, top, energy)
        extra = []  # the tied words' terms
        for i in range(0, len(tied), _BLOCK):
            z = tied[i:i + _BLOCK]
            rest = self._rest(z[:, 1:], self.scratch.rest[:len(z)])
            words = self._words(rest, np.ones(len(z), dtype=np.int64), z[:, 0])
            absx = np.abs(words, out=words)
            if float(absx.min()) < DIVERSITY_EPS:
                bad = _lex_first(bad, absx, lambda rows: z[rows], mirrored=False)
            elif bad is None:
                extra += _terms(absx, self.exponent, self.scratch.r[:len(z)],
                                self.scratch.t[:len(z)]).tolist()
        if bad is not None:
            raise DiversityError(*bad)
        # Every term is positive, so an infinite one makes S inf (a large
        # exponent overflows quietly), whether or not the finite ones
        # overflow, which raises.
        s_value = math.inf if s.infinite or math.inf in extra else s.result(extra)
        return SumReport(
            lattice_name, len(self.M), self.m, p_lim, size, p_max=p_max, p_ave=p_ave,
            s_value=s_value, exponent=self.exponent, target_size=target_size)


class _Scan(_Words):
    """The codebook of a generator without a form: the whole box, its
    half read as _box_blocks, keyed by float norms, the zero word always
    kept. It costs (2m+1)^n words, whatever the rule."""

    def cap(self, p_lim: float) -> float:
        """The cut of the ball ||x||^2 <= p_lim: p_lim."""
        return p_lim

    def cut(self, target: int) -> tuple[float, int | None]:
        """(cut, left) of the rule that keeps the box's target words lowest
        in (norm, lex) order: the zero word and the need = target - 1
        others lowest, cut the need-th smallest norm of the others (-inf
        for none), each norm of the half standing for two words, and left
        how many normed cut it keeps. A word normed 0.0 comes before the
        zero word, so need is at least 1 where there is one: it fails the
        diversity check."""
        norms = np.empty(((2 * self.m + 1) ** len(self.M) - 1) // 2)
        i = 0
        for words, _, _ in self._box_blocks():
            _norms(words, norms[i:i + len(words)])
            i += len(words)
        need = max(target - 1, int(norms.min() == 0.0))
        if not need:
            return -math.inf, None
        k = (need + 1) // 2
        norms.partition(k - 1)
        cut = float(norms[k - 1])
        left = need - 2 * int(np.count_nonzero(norms < cut))
        return cut, None if left == 2 * int(np.count_nonzero(norms == cut)) else left

    def _half(self, cut: float, left: int | None):
        """(words, None, coeffs) per block of the half's words that the
        rule keeps, their norms summed into self.energy and their largest
        in self.top. Where left is not None the words normed cut are left
        out and gathered in self.tied."""
        self.tied, self.top, self.energy = [], 0.0, _ExactSum(self.scratch)
        for words, _, coeffs in self._box_blocks():
            norms = _norms(words)
            if left is not None:
                self.tied.append(coeffs(np.flatnonzero(norms == cut)).astype(np.int64))
            kept = np.flatnonzero(norms <= cut if left is None else norms < cut)
            if len(kept):
                self.energy.add(norms[kept])
                self.top = max(self.top, float(norms[kept].max()))
                yield words[kept], None, lambda rows: coeffs(kept[rows])

    def _energies(self, cut: float, tied: int, size: int, *_) -> tuple:
        """(p_max, p_ave): the largest kept norm and the exact mean, the
        finite norms summed first, so an energy sum that overflows raises,
        an infinite norm or not."""
        energy = self.energy.result([cut] * tied)
        if self.energy.infinite or tied and cut == math.inf:
            energy = math.inf
        return max(self.top, cut) if tied else self.top, energy / size


class _Codebook(_Words):
    """The codebook of a generator with an integer form F on the box
    {-m..m}^n under a rule (cut, left): keep the words keyed below cut
    and, of those keyed cut, all (left None) or the lex-first left. Half
    the codebook is walked and the rest read as negations. Every block
    goes through one fixed _Scratch."""

    def __init__(self, gen: GeneratorMatrix, m: int, exponent: int):
        super().__init__(gen, m, exponent)
        self.F, self.walker = gen.form, gen.walker
        self.box_top = m * m * self.walker.corner

    def cap(self, p_lim: float) -> float:
        """The cut of the ball ||x||^2 <= p_lim: the largest integer
        q <= box_top with q^n <= det(F) p_lim^n, decided in Fraction, or
        an infinite p_lim."""
        if math.isinf(p_lim):
            return p_lim
        n, top = len(self.F), self.box_top
        bound = self.walker.det * Fraction(float(p_lim)) ** n
        return float(bisect.bisect_right(range(top + 1), bound, key=lambda q: q ** n) - 1)

    def cut(self, target: int) -> tuple[float, int | None]:
        """(cut, left) of the rule that keeps the box's target words lowest
        in (key, lex) order: cut is the target-th smallest key, and left
        how many of the words keyed cut it keeps (None: all)."""
        n, top = len(self.M), self.box_top
        ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        covolume = math.sqrt(self.walker.det)
        # target * covolume can overflow; each power apart is finite.
        radius = (target / ball) ** (2 / n) * covolume ** (2 / n)
        while True:
            radius = min(radius, top)
            keys, counts = self._histogram(radius)
            below = np.cumsum(counts)
            if not radius < top or below[-1] >= target:
                break
            # The box cuts the ball, so the count grows slower than the
            # volume: aim past the target.
            grow = 1.1 * max(1.1, (target / below[-1]) ** (2 / n))
            radius = radius * grow if radius > 0 else top
        j = int(np.searchsorted(below, target))
        left = target - (int(below[j - 1]) if j else 0)
        return float(keys[j]), None if left == counts[j] else left

    def _histogram(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(keys, counts) of the codebook's words keyed at most radius
        (every word, from box_top on), zero included, in ascending key
        order, binned by np.bincount: each word of the walked half counts
        for itself and its negation. As in _walked, each walker group's
        runs are keyed a block of at most _BLOCK words at a time."""
        counts = np.zeros(math.floor(radius) + 1, dtype=np.int64)
        f = self.F[0][0]
        for _, lo, runs, A, b in self._nodes(radius):
            for k, a, count in _blocks(lo, runs):
                z1 = _values(a, count)
                # Every walked q is at most the radius, so only its bins are added.
                found = np.bincount(np.repeat(A[k], count)
                                    + z1 * (np.repeat(2 * b[k], count) + f * z1))
                counts[:len(found)] += found
        counts *= 2
        counts[0] += 1
        keys = np.flatnonzero(counts)
        return keys, counts[keys]

    def _nodes(self, cap: float):
        """The walker's groups (r, lo, runs, A, b) at cap of half the
        codebook: rest vectors r <lex 0 with their whole runs of z1, then
        r = 0 with z1 >= 1, each run's q = A + z1 (2 b + F_11 z1). With
        their negations they hold every word but zero; the walk stops at
        the zero rest vector, or at the first r >lex 0."""
        for r, lo, runs, A, b in self.walker.nodes(cap, self.m):
            end, zero = _around_zero(r)
            if zero:  # the zero rest vector's run, whole in this group
                start = max(lo[end], 1)
                lo[end], runs[end] = start, max(lo[end] + runs[end] - start, 0)
                end += 1
            yield r[:end], lo[:end], runs[:end], A[:end], b[:end]
            if end < len(r) or zero:
                return

    def _walked(self, cut: float, split: bool):
        """(words, keys, coeffs) per block of the walked half's words that
        the rule keeps, keys the block's (largest, sum) from its runs' ends
        and closed form; coeffs(rows) gives rows' coefficient vectors. With
        split the words keyed cut, run ends since q is strictly convex, are
        left out and gathered in self.tied, as (z1, r) rows. Each walker
        group's rest sums are taken once; its words then come in blocks of
        at most _BLOCK."""
        self.tied = []
        f = self.F[0][0]
        for r, a, runs, A, b in self._nodes(cut):
            b2, e = 2 * b, a + runs - 1
            if split:
                ta = (runs > 0) & (A + a * (b2 + f * a) == cut)
                te = (runs > 1) & (A + e * (b2 + f * e) == cut)
                self.tied += [np.column_stack((a[ta], r[ta])), np.column_stack((e[te], r[te]))]
                a, e = a + ta, e - te
            live = np.flatnonzero(e >= a)
            r, lo, runs, A, b2 = r[live], a[live], (e - a + 1)[live], A[live], b2[live]
            rest = self._rest_sums(r)
            for k, a, count in _blocks(lo, runs):
                z1 = _values(a, count, float)
                yield (self._words(rest[k], count, z1), _run_keys(A[k], b2[k], f, a, count),
                       lambda rows: _coeffs(r[k], count, z1, rows))

    def _rest_sums(self, r: np.ndarray) -> np.ndarray:
        """The rest sums of a walker group's rest vectors r, in a new array,
        _BLOCK rows at a time."""
        rest = np.empty((len(r), len(self.M)), order="F")
        for i in range(0, len(r), _BLOCK):
            self._rest(r[i:i + _BLOCK], rest[i:i + _BLOCK])
        return rest

    def _half(self, cut: float, left: int | None):
        """The blocks of the kept half: the whole box's, or walked."""
        self.whole = left is None and not cut < self.box_top
        return self._box_blocks() if self.whole else self._walked(cut, left is not None)

    def _energies(self, cut: float, tied: int, size: int, top: int, energy: int) -> tuple:
        """(p_max, p_ave) of the kept exact energies, each rounded once."""
        n = len(self.M)
        if self.whole:
            # The box's cross terms cancel, and its largest q is at a corner.
            m, side = self.m, 2 * self.m + 1
            top = self.box_top
            energy = (sum(self.F[j][j] for j in range(n)) * side ** (n - 1)
                      * (m * (m + 1) * side // 3))
        else:
            energy = 2 * energy + tied * int(cut)
            top = max(top, int(cut)) if tied else top
        return _rounded(top, 1, self.walker.det, n), _rounded(energy, size, self.walker.det, n)


def inverse_norm_power_sum(
    gen: GeneratorMatrix | np.ndarray,
    m: int,
    p_lim: float = math.inf,
    exponent: int = 3,
    lattice_name: str = "",
) -> SumReport:
    """S over the box-and-ball codebook, with energy statistics: the rule
    with cut at the cap of p_lim, keeping every tie."""
    m, exponent = _check_box_args(m, p_lim, exponent)
    gen = _as_generator(gen)
    codebook = (_Scan if gen.form is None else _Codebook)(gen, m, exponent)
    return codebook.report(codebook.cap(p_lim), None, lattice_name, p_lim)


def carve_lowest_energy(
    gen: GeneratorMatrix | np.ndarray,
    m: int,
    target_size: int,
    exponent: int = 3,
    lattice_name: str = "",
) -> SumReport:
    """The target_size lowest-energy codewords of the m-box.

    Ties at the energy boundary are broken by lexicographic coefficient
    order. The zero word has energy 0 and is always selected.
    """
    m, exponent = _check_box_args(m, math.inf, exponent)
    gen = _as_generator(gen)
    box_size = (2 * m + 1) ** gen.n
    target_size = positive_int(target_size, "target_size")
    if target_size > box_size:
        raise DomainError(
            "target_size %d exceeds box size %d" % (target_size, box_size))
    codebook = (_Scan if gen.form is None else _Codebook)(gen, m, exponent)
    return codebook.report(*codebook.cut(target_size), lattice_name,
                           target_size=target_size)


def table_sweep(sweeps, exponent: int = 3) -> list[SumReport]:
    """One SumReport per TableRow of each (LatticeSpec, rows) pair of
    sweeps, computed independently, in order."""
    return [carve_lowest_energy(lattice.generator, row.m, row.target_size,
                                exponent=exponent, lattice_name=lattice.name)
            if row.target_size is not None else
            inverse_norm_power_sum(lattice.generator, row.m, row.p_lim,
                                   exponent=exponent, lattice_name=lattice.name)
            for lattice, rows in sweeps for row in rows]


# Catalogued sweep configurations. table1: the two unitary lattices
# over plain boxes m = 1..10 without an energy cap. table2: the skewed
# lattice over energy-capped boxes; the (m=12, 2401) row carves by
# target size (its catalogued codebook is smaller than the m=7 ball).
TABLE1_ROWS: tuple[TableRow, ...] = tuple(TableRow(m) for m in range(1, 11))

TABLE2_ROWS: tuple[TableRow, ...] = (
    TableRow(8, 4.0),
    TableRow(5, 16.0),
    TableRow(6, 16.0),
    TableRow(7, 36.0),
    TableRow(12, target_size=2401),
    TableRow(9, 64.0),
    TableRow(10, 100.0),
    TableRow(11, 100.0),
    TableRow(14, 196.0),
    TableRow(18, 324.0),
    TableRow(20, 400.0),
)

TABLE1_LATTICES = ("lambda1", "lambda2")
TABLE2_LATTICE = "lambda3"


def _fmt_plim(p_lim: float, target_size) -> str:
    if target_size is not None:
        return ""
    if math.isinf(p_lim):
        return "inf"
    return "%g" % p_lim


def reports_to_csv(reports, full_precision: bool = False) -> str:
    """CSV rows per report; s_value at 6 significant digits by default."""
    lines = ["lattice,m,p_lim,size,p_max,p_ave,s_value"]
    for r in reports:
        if full_precision:
            pmax, pave, s = repr(r.p_max), repr(r.p_ave), repr(r.s_value)
        else:
            pmax, pave, s = "%.2f" % r.p_max, "%.2f" % r.p_ave, "%.5e" % r.s_value
        lines.append(",".join([
            r.lattice_name, str(r.m), _fmt_plim(r.p_lim, r.target_size),
            str(r.size), pmax, pave, s]))
    return "\n".join(lines) + "\n"


def aligned(rows) -> str:
    """Rows of cells as text, each column right-aligned, two spaces apart
    (the table of `sum --format text` and of `compare`)."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows)
