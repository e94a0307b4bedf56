"""Finite codebooks and truncated inverse norm power sums.

Codewords are lattice points x = z M with integer coefficient vectors z
ranging over the box {-m..m}^n, optionally intersected with the energy
ball ||x||^2 <= p_lim or carved down to the lowest-energy subset of a
target size. M passes the GeneratorMatrix checks, as a plain array
too. The eavesdropper-confusion metric is

    S = sum over included nonzero x of prod_i |x_i|^(-exponent)

(the inverse norm power sum; exponent 3 corresponds to the fast-fading
correct-decision probability). The sums span many orders of magnitude,
so each coefficient slice's terms are summed exactly and rounded once.
_ExactSum does that with integer mantissa parts binned by exponent,
merged block by block, and returns the bits math.fsum would, without a
Python float per term. The per-slice partials are combined with
math.fsum in fixed ascending order of the leading coefficient. A plain
array's float norms are summed the same way; a catalogued generator's
energies are integers, summed exactly in Python ints.

One rule decides every codebook. Each z has a key: its exact energy
q = z F z^T where the generator carries its integer form F (the
catalogued lattices do), a sum of products of small integers and so
exact in float64; for a plain array, the float norm ||x||^2 of its
word. The rule (cut, ties) keeps the z keyed below cut and, of those
keyed cut, all or the lex-first ties. A sum keeps all at cut p_lim, or
for exact keys at q_cap = max{q : q^n <= det(F) p_lim^n}, decided in
Fraction. A carve counts the keys of each slice to find its cut, the
target_size-th smallest key, and how many words keyed cut it takes,
then runs the sum's slices under that rule. With exact keys no float
rounding, so no BLAS or SIMD kernel, decides which words a codebook
keeps, and the energies are the kept keys: p_max is q_max det(F)^(-1/n)
and p_ave (sum q / size) det(F)^(-1/n), each correctly rounded once
(_rounded). Slices on the whole rest box take no keys: their sum of q is
(2m+1)^(n-1) F_11 z1^2 + (2m+1)^(n-2) tr(F_rest) m(m+1)(2m+1)/3, the
box's cross terms cancelling, and their largest q is at a corner of
the rest box. For a plain array, p_max and p_ave are the float norms'
largest and exact mean.

Every word, and a plain array's norm, is one formula in IEEE column
arithmetic,

    x_j = ((z_2 M_2j + z_3 M_3j) + ... + z_n M_nj) + z_1 M_1j,
    ||x||^2 = ((x_1^2 + x_2^2) + ...) + x_n^2,

each step one correctly rounded ufunc on a column of a column-major
block, so no BLAS or SIMD kernel decides a bit. Where the rule keeps
the box (cut at box_top or above, every tie), exact keys are not
needed, and the rest sums of rows 0..(N-1)/2 of the rest box
{-m..m}^(n-1), the middle (zero) row included, are taken once, from
pieces of _BLOCK coefficient rows. Row N-1-i of the box is minus row i
and the formula is odd, so a row above the middle reads its mirror's
rest sums, negated by the subtraction z_1 M_1j - s: no array of
(2m+1)^(n-1) rows is built. Below box_top the walker
numfields.EllipsoidWalker (Fincke-Pohst over F, or over M M^T for float
keys) gives each slice its candidates at cut in lex order, none within
the cut left out. A slice streams through blocks of _BLOCK = 8192 rows
whose keys, words, norms, masks and terms are made in fixed scratch and
added to its exact sums: no pass but the walk allocates a slice-sized
array. Every row's arithmetic is its own, so the bits do not depend on
the block size. The one matmul, the keys' z F, sums integers, exactly
in any order.

The codebook is symmetric under x -> -x, and the fold uses it exactly.
IEEE negation is exact and rounding is symmetric, so the formula is
odd: the word of -z is minus the word of z bit for bit, up to the sign
of a zero coordinate, which abs and squaring erase. So every word of
slice -z1 has the key, term and energy of its mirror in slice z1. A
slice sum rounds once, whatever the order of its terms, so slices
z1 = 0..m are computed and slice -z1 takes slice z1's partials where
both keep all of their words keyed cut, or none; a pair that the
carve's lex-first ties split is computed slice by slice. A diversity
failure is reported at the lex-first offending coefficient vector, as
without the fold. The carve's count walks a ball whose volume holds
target_size lattice points and grows it until at least target_size
keys lie in it; from box_top on, the walk gives the whole box.

Reported statistics: size counts every included codeword (the zero word
too, matching the catalogued codebook sizes); p_max is the maximum
squared norm over nonzero codewords; p_ave averages squared norms over
all included codewords including zero. For lambda1 and lambda2 (F = I)
they are the catalogued orthogonal-box values 4m^2 and the float
nearest 4m(m+1)/3 exactly.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DiversityError, DomainError, positive_int
from .numfields import EllipsoidWalker, GeneratorMatrix, _box, _frac_det

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
# L2 through a slice's passes over it. The one matmul, the integer keys'
# z F of a block, is 16 * 8192 = 2^17 multiply-adds at n = 4, half of
# the 65536 * 4 up to which OpenBLAS's gemm runs in the calling thread.
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


def _first_violation(absx: np.ndarray) -> tuple[int, int, float] | None:
    """(row, coordinate, value) of the first row with a coordinate below
    DIVERSITY_EPS, or None. absx must not be empty."""
    if not float(absx.min()) < DIVERSITY_EPS:
        return None
    first = int(np.argmax((absx < DIVERSITY_EPS).any(axis=1)))
    coord = int(np.argmin(absx[first]))
    return first, coord, float(absx[first, coord])


class _Scratch:
    """Fixed buffers for blocks of at most _BLOCK rows of n coordinates,
    owned by one _Slices: column-major words, norms, keys, the keep mask,
    the reciprocals and terms of _terms (t is also the word formula's
    product), and the bins and high parts of _ExactSum.add."""

    def __init__(self, n: int):
        self.words = np.empty((_BLOCK, n), order="F")
        self.norms, self.keys, self.r, self.t = np.empty((4, _BLOCK))
        self.keep = np.empty(_BLOCK, dtype=bool)
        self.bins, self.high = np.empty((2, _BLOCK), dtype=np.uint64)


# Values per flush of _ExactSum's bins: up to 2^26 parts of under 2^27
# units each keep a bin's sum below 2^53 units, so exact.
_MAX_PARTS = 1 << 26
_HIGH = np.uint64(2 ** 64 - 2 ** 26)  # clears the low 26 mantissa bits


class _ExactSum:
    """math.fsum of every value added, in order, bit for bit, from bins.

    Each float64 is split into its value with the low 26 mantissa bits
    cleared and the remainder, both exact. Binned by sign and biased
    exponent e, the high parts are multiples of 2^(e-1049) below
    2^(e-1022) and the low parts multiples of 2^(e-1075) below
    2^(e-1049) (subnormals, in bin 0, scale as e = 1), so np.bincount
    adds each block's bins exactly, and so does merging them into the
    running bins, which go to a list of parts every _MAX_PARTS values.
    The parts sum to the exact total, and math.fsum of them rounds it
    once, as math.fsum of the values does. Infinities and NaNs are set
    aside in order; while the finite values cannot overflow, math.fsum
    of the values gives what math.fsum of those gives.

    result is None where math.fsum's outcome depends on the order of
    the values: when the finite ones could overflow (largest exponent
    plus the count's bit length past 2044). The bins are then dropped,
    exact is False, and the caller takes math.fsum of the values
    themselves. Values that are all zeros leave no parts, and math.fsum
    of them is +0.0, as of none.
    """

    def __init__(self, scratch: _Scratch):
        self.scratch, self.exact = scratch, True
        self.parts, self.specials = [], []
        self.hi = self.lo = None
        self.count = self.total = self.top = 0

    def add(self, values: np.ndarray) -> None:
        """Add a float64 block of at most _BLOCK (and _MAX_PARTS) values."""
        if not self.exact:
            return
        k = len(values)
        if self.count and self.count + k > _MAX_PARTS:
            self._flush()
        self.count += k
        self.total += k
        bits = values.view(np.uint64)
        bins = np.right_shift(bits, 52, out=self.scratch.bins[:k]).view(np.int64)
        high = np.bitwise_and(bits, _HIGH, out=self.scratch.high[:k]).view(np.float64)
        hi = np.bincount(bins, high)
        special = len(hi) > 2047 and np.any(hi[2047::2048])
        if special:  # an infinity or NaN: set aside, and out of the bins
            nonfinite = ~np.isfinite(values)
            self.specials += values[nonfinite].tolist()
            high[nonfinite] = 0.0
        lo = np.bincount(bins, np.subtract(values, high, out=high))
        top = len(hi) - 1
        if top > 2046:  # the largest bin holds a special or a negative value
            if special:
                hi[2047::2048] = lo[2047::2048] = 0.0
            top = int((np.flatnonzero(hi) & 0x7FF).max(initial=0))
        self.top = max(self.top, top)
        # total values below 2^(top-1022) stay below 2^1022, so neither
        # the bins nor fsum's own partials can overflow.
        if self.top + self.total.bit_length() > 2044:
            self.exact, self.hi, self.lo = False, None, None
        elif self.hi is None:
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

    def result(self) -> float | None:
        """math.fsum of the values, or None if it must be taken of them."""
        if not self.exact:
            return None
        if self.hi is not None:
            self._flush()
        if self.specials:
            return math.fsum(self.specials)
        return math.fsum(self.parts)


def _terms(absx: np.ndarray, exponent: int, r: np.ndarray,
           out: np.ndarray) -> np.ndarray:
    """prod_i |x_i|^(-exponent) per row, into out: the product
    ((a0*a1)*a2)*... and its reciprocal, into r, then r^exponent by
    left-to-right square and multiply. Every step is one correctly
    rounded IEEE operation, so the bits do not depend on the CPU's SIMD
    dispatch, as np.power's do."""
    np.copyto(r, absx[:, 0])
    for j in range(1, absx.shape[1]):
        r *= absx[:, j]
    np.divide(1.0, r, out=r)
    np.copyto(out, r)
    # A large exponent overflows to inf, which the exact sum passes on.
    with np.errstate(over="ignore"):
        for bit in bin(exponent)[3:]:
            out *= out
            if bit == "1":
                out *= r
    return out


def _reduce(blocks, exponent: int, scratch: _Scratch, exact: bool):
    """(size, s, top, total, bad) of the selected nonzero words that
    blocks() yields as (words, keys, rows) blocks of at most _BLOCK
    rows, in order: their count, the exact sum of their terms, and the
    largest and the sum of their keys. words is overwritten by its
    absolute values. bad is (rows[i], coordinate, |value|) of the first
    word i with a coordinate below DIVERSITY_EPS, or None; s and top
    are then 0.0.

    Exact keys (exact True) are integers of at most the cut each, so a
    block's float64 sum of them is exact while _BLOCK cut < 2^53, and
    total is an int; keys None (the whole rest box, whose energies stats
    takes in closed form) leave top 0.0 and total 0. Float norms are
    summed by an _ExactSum.

    Where an _ExactSum has no result, blocks() is read again and
    math.fsum takes the values themselves. No term is taken once the
    energy's bins are dropped until the energy is settled, so an energy
    sum that overflows raises before any term can overflow, as when all
    the norms were summed first.
    """
    energy = None if exact else _ExactSum(scratch)
    s = _ExactSum(scratch)
    size, top, total, bad = 0, 0.0, 0, None
    for words, keys, rows in blocks():
        size += len(words)
        if energy is not None:
            energy.add(keys)
        elif keys is not None:
            total += int(keys.sum())
        if bad is not None or not len(words):
            continue
        if keys is not None:
            top = max(top, float(keys.max()))
        absx = np.abs(words, out=words)
        bad = _first_violation(absx)
        if bad is not None:
            bad = (rows[bad[0]],) + bad[1:]
        elif energy is None or energy.exact:
            s.add(_terms(absx, exponent, scratch.r[:len(absx)], scratch.t[:len(absx)]))
    if energy is not None:
        total = energy.result()
        if total is None:
            total = _fsum(blocks, lambda words, keys: keys)
    if bad is not None:
        return size, 0.0, 0.0, total, bad
    s_value = s.result() if energy is None or energy.exact else None
    if s_value is None:
        s_value = _fsum(blocks, lambda words, keys: _terms(
            np.abs(words, out=words), exponent,
            scratch.r[:len(words)], scratch.t[:len(words)]))
    return size, s_value, top, total, None


def _fsum(blocks, values) -> float:
    """math.fsum of values(words, keys) over blocks(), as Python floats."""
    parts = []
    for words, keys, _ in blocks():
        parts += values(words, keys).tolist()
    return math.fsum(parts)


class _Slices:
    """The codebook split by its leading coefficient z1, the keys of its
    coefficient vectors, and the rule (cut, ties) that keeps the words
    keyed below cut and, of those keyed cut, all (ties None) or the
    lex-first ties. Every block goes through one fixed _Scratch."""

    def __init__(self, gen: GeneratorMatrix, m: int, exponent: int):
        self.M, self.m, self.exponent = gen.entries, m, exponent
        self.scratch = _Scratch(gen.n)
        self.F = F = gen.form
        exact = F is not None
        self.form = np.array(F, dtype=float) if exact else None
        self.det = _frac_det(F) if exact else None
        if exact:
            # The form is q(z1, m s) = F_11 z1^2 + z1 m a + m^2 b at each
            # corner m s, s in {-1, 1}^(n-1), of the rest box: its (a, b).
            rest = range(1, gen.n)
            self.corners = [
                (2 * sum(F[0][j] * s[j - 1] for j in rest),
                 sum(F[i][j] * s[i - 1] * s[j - 1] for i in rest for j in rest))
                for s in itertools.product((-1, 1), repeat=gen.n - 1)]
        self.walker = EllipsoidWalker(F if exact else gen.gram, m)
        # The rest sums of the rest box's rows 0..(N-1)/2, once a rule
        # keeps the box; row N-1-i is minus row i, so they give every row.
        self.half = None

    def cap(self, p_lim: float) -> float:
        """The cut of the ball ||x||^2 <= p_lim: p_lim for float keys or an
        infinite p_lim, else the largest integer q <= box_top with
        q^n <= det(F) p_lim^n, decided in Fraction."""
        if self.form is None or math.isinf(p_lim):
            return p_lim
        n, top = len(self.form), int(self.walker.box_top)
        bound = self.det * Fraction(float(p_lim)) ** n
        return float(bisect.bisect_right(range(top + 1), bound, key=lambda q: q ** n) - 1)

    def cut(self, target: int) -> tuple[float, list]:
        """(cut, ties) of the rule that keeps the box's target words lowest
        in (key, lex) order: cut is the target-th smallest key, and
        ties[z1 + m] how many words keyed cut slice z1 keeps (None: all).
        Slices z1 and -z1 hold the same keys, so z1 >= 0 are counted."""
        m, n, top = self.m, len(self.M), self.walker.box_top
        ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        covolume = abs(np.linalg.det(self.M)) if self.form is None else math.sqrt(self.det)
        radius = (target * covolume / ball) ** (2 / n)
        while True:
            radius = min(radius, top)
            hists = []
            for z1 in range(m + 1):
                z = self.walker.vectors(z1, radius)
                keys = np.empty(len(z))
                for i in range(0, len(z), _BLOCK):
                    keys[i:i + _BLOCK] = self._keys(z1, z[i:i + _BLOCK])
                # Every key counts from box_top on.
                hists.append(np.unique(keys[keys <= radius] if radius < top else keys,
                                       return_counts=True))
            keys, where = np.unique(np.concatenate([k for k, _ in hists]),
                                    return_inverse=True)
            below = np.cumsum(np.bincount(where, np.concatenate(
                [c * (1 + (z1 > 0)) for z1, (_, c) in enumerate(hists)])))
            if not radius < top or below[-1] >= target:
                break
            # The box cuts the ball, so the count grows slower than the
            # volume: aim past the target.
            grow = 1.1 * max(1.1, (target / below[-1]) ** (2 / n))
            radius = radius * grow if radius > 0 else top
        j = int(np.searchsorted(below, target))
        cut, left = keys[j], target - (int(below[j - 1]) if j else 0)
        ties = []
        for z1 in range(-m, m + 1):
            k, c = hists[abs(z1)]
            tied = int(c[k == cut].sum())
            ties.append(None if left >= tied else left)
            left -= min(left, tied)
        return float(cut), ties

    def _keys(self, z1: int, z: np.ndarray) -> np.ndarray:
        """The keys of a block z of slice z1's coefficient vectors, in the
        scratch: z F z^T, whose z F borrows the words buffer, or the float
        norms of the words."""
        if self.form is None:
            return self._norms(self._words(z1, z[:, 1:]))
        y = np.matmul(z, self.form, out=self.scratch.words[:len(z)])
        np.multiply(y, z, out=y)
        q = self.scratch.keys[:len(z)]
        np.copyto(q, y[:, 0])
        for j in range(1, y.shape[1]):
            q += y[:, j]
        return q

    def _rest(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The rest sums (z_2 M_2j + z_3 M_3j) + ... + z_n M_nj of a block
        r of rest vectors into the columns of out; +0.0 for n = 1."""
        M, t = self.M, self.scratch.t[:len(r)]
        if len(M) == 1:
            out.fill(0.0)
            return out
        for j in range(len(M)):
            np.multiply(r[:, 0], M[1, j], out=out[:, j])
            for i in range(2, len(M)):
                np.add(out[:, j], np.multiply(r[:, i - 1], M[i, j], out=t), out=out[:, j])
        return out

    def _words(self, z1: int, r: np.ndarray) -> np.ndarray:
        """The words of slice z1 over a block r of rest vectors, by the
        word formula, in the scratch."""
        words = self.scratch.words[:len(r)]
        rest = self._rest(r, words)
        for j, x in enumerate(z1 * self.M[0]):
            np.add(rest[:, j], x, out=words[:, j])
        return words

    def _box_words(self, z1: int, i: int, stop: int) -> np.ndarray:
        """The words of slice z1 over rows i..stop-1 of the whole rest box,
        in the scratch. A row up to the middle one, mid, adds z1 M_1j to
        its rest sums in the half block; a row k above it takes
        z1 M_1j - half[2 mid - k], the same bits up to the sign of a zero:
        IEEE negation is exact, x - s is x + (-s), and the formula is odd."""
        words, mid = self.scratch.words[:stop - i], len(self.half) - 1
        up = min(max(i, mid + 1), stop)  # the first row above the middle
        # Row k > mid mirrors row k - mid of the reversed half.
        mirror = self.half[::-1][up - mid:stop - mid]
        for j, x in enumerate(z1 * self.M[0]):
            np.add(self.half[i:up, j], x, out=words[:up - i, j])
            np.subtract(x, mirror[:, j], out=words[up - i:, j])
        return words

    def _norms(self, words: np.ndarray) -> np.ndarray:
        """The float norms of a block of words, by the word formula, in the
        scratch. A norm may overflow to inf; the energy sum passes it on,
        or raises, as math.fsum does."""
        t = self.scratch.t[:len(words)]
        with np.errstate(over="ignore"):
            norms = np.multiply(words[:, 0], words[:, 0], out=self.scratch.norms[:len(words)])
            for j in range(1, words.shape[1]):
                np.add(norms, np.multiply(words[:, j], words[:, j], out=t), out=norms)
        return norms

    def _blocks(self, z1: int, z, cut: float, ties):
        """(words, keys, rows) per block of slice z1's rest vectors: the
        words the rule keeps other than the zero word, their keys, and
        their row numbers in z or in the rest box. z holds the walker's
        rows, or is None for the whole rest box, which the rule keeps
        whole and whose keys are None for exact keys. The words of a
        whole block are the scratch's, overwritten by the next block."""
        count = len(z) if z is not None else 2 * len(self.half) - 1
        for i in range(0, count, _BLOCK):
            stop = min(i + _BLOCK, count)
            keep = self.scratch.keep[:stop - i]
            r = None if z is None else z[i:stop, 1:]
            if z is None:
                words = self._box_words(z1, i, stop)
                keys = None if self.form is not None else self._norms(words)
            elif self.form is None:
                words = self._words(z1, r)
                keys = self._norms(words)
            else:
                # Exact keys first: their product borrows the words buffer.
                keys = self._keys(z1, z[i:stop])
                words = self._words(z1, r)
            if keys is None:
                keep.fill(True)
            else:
                np.less_equal(keys, cut, out=keep)
            if ties is not None:
                tied = np.flatnonzero(keys == cut)
                keep[tied[ties:]] = False
                ties -= min(ties, len(tied))
            if z1 == 0 and z is not None:
                keep &= r.any(axis=1)
            elif z1 == 0 and i < len(self.half) <= stop:
                keep[len(self.half) - 1 - i] = False  # the zero word: the middle row
            if np.count_nonzero(keep) == len(keep):
                yield words, keys, range(i, stop)
            else:
                yield words[keep], None if keys is None else keys[keep], i + np.flatnonzero(keep)

    def _box_energy(self, z1: int) -> tuple[int, int]:
        """(largest, sum) of the exact keys of slice z1's words over the
        whole rest box {-m..m}^(n-1). The box is symmetric, so the sum's
        cross terms z_i z_j (i != j) cancel and each rest coordinate adds
        F_jj times its sum of squares; the form is convex, so its largest
        value on the box is at a corner."""
        F, m, n = self.F, self.m, len(self.F)
        side = 2 * m + 1
        total = side ** (n - 1) * F[0][0] * z1 * z1
        if n > 1:
            total += (sum(F[j][j] for j in range(1, n)) * side ** (n - 2)
                      * (m * (m + 1) * side // 3))
        top = F[0][0] * z1 * z1 + max(z1 * m * a + m * m * b for a, b in self.corners)
        return top, total

    def stats(self, z1: int, cut: float, ties: int | None = None):
        """(count, s_partial, top, energy_partial, bad) of the words of
        slice z1 that the rule (cut, ties) keeps: top and energy_partial
        are the largest and the sum of their keys, exact integers where
        the generator has a form, and bad is the first (lex order)
        diversity violation as (coefficient vector, coordinate index,
        coordinate value), or None."""
        z = None
        if ties is None and not cut < self.walker.box_top:
            if self.half is None:
                k = len(self.M) - 1
                half = ((2 * self.m + 1) ** k + 1) // 2
                self.half = np.empty((half, len(self.M)), order="F")
                for i in range(0, half, _BLOCK):
                    stop = min(i + _BLOCK, half)
                    self._rest(_box(k, self.m, i, stop), self.half[i:stop])
        else:
            z = self.walker.vectors(z1, cut)
        exact = self.form is not None
        size, s_partial, top, energy, bad = _reduce(
            lambda: self._blocks(z1, z, cut, ties), self.exponent, self.scratch, exact)
        if bad is not None:
            row, coord, value = bad
            rest = _box(len(self.M) - 1, self.m, row, row + 1)[0] if z is None else z[row, 1:]
            bad = ((z1, *map(int, rest)), coord, value)
        elif exact and z is None:
            top, energy = self._box_energy(z1)
        # The zero word, in slice 0 whatever the rule, counts but has no term.
        return size + (z1 == 0), s_partial, top, energy, bad

    def report(self, cut: float, ties: list, lattice_name: str,
               p_lim: float = math.inf, target_size: int | None = None) -> SumReport:
        """The SumReport of the words that the rule keeps, ties[z1 + m]
        being slice z1's; slice -z1 mirrors slice z1 where their ties
        agree."""
        m = self.m
        own = [self.stats(z1, cut, ties[z1 + m]) for z1 in range(m + 1)]
        parts = [own[abs(z1)] if ties[z1 + m] == ties[abs(z1) + m]
                 else self.stats(z1, cut, ties[z1 + m]) for z1 in range(-m, m + 1)]
        # A mirrored slice -z1 reports slice z1's violation, whose mirror
        # need not be the lex-first one there: rescan that slice.
        first_bad = next((i for i, p in enumerate(parts) if p[4] is not None), None)
        if first_bad is not None:
            if first_bad < m:
                parts[first_bad] = self.stats(first_bad - m, cut, ties[first_bad])
            raise DiversityError(*parts[first_bad][4])
        size, n = sum(p[0] for p in parts), len(self.M)
        top = max((p[2] for p in parts if p[0]), default=0.0)
        if self.form is None:
            p_max, p_ave = top, math.fsum(p[3] for p in parts) / size
        else:
            p_max = _rounded(int(top), 1, self.det, n)
            p_ave = _rounded(sum(p[3] for p in parts), size, self.det, n)
        return SumReport(
            lattice_name, n, m, p_lim, size, p_max=p_max, p_ave=p_ave,
            s_value=math.fsum(p[1] for p in parts),
            exponent=self.exponent, target_size=target_size)


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
    slices = _Slices(_as_generator(gen), m, exponent)
    return slices.report(slices.cap(p_lim), [None] * (2 * m + 1),
                         lattice_name, p_lim)


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
    slices = _Slices(gen, m, exponent)
    return slices.report(*slices.cut(target_size), lattice_name,
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
