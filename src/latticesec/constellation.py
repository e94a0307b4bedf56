"""Finite codebooks and truncated inverse norm power sums.

Codewords are lattice points x = z M with integer coefficient vectors z
ranging over the box {-m..m}^n, optionally intersected with the energy
ball ||x||^2 <= p_lim or carved down to the lowest-energy subset of a
target size. M passes the GeneratorMatrix checks, as a plain array
too. The eavesdropper-confusion metric is

    S = sum over included nonzero x of prod_i |x_i|^(-exponent)

(the inverse norm power sum; exponent 3 corresponds to the fast-fading
correct-decision probability). The sums span many orders of magnitude,
so each coefficient slice's terms and energies are summed exactly and
rounded once. _ExactSum does that with integer mantissa parts binned
by exponent, merged block by block, and returns the bits math.fsum
would, without a Python float per term. The per-slice partials are
combined with math.fsum in fixed ascending order of the leading
coefficient.

Slice z1 is z1*M[0] plus rest @ M[1:] over its rest vectors
(z_2, ..., z_n). Without a cap, or when the ball holds the box, these
are the whole rest box {-m..m}^(n-1), and that block is built once per
sum. A slice is streamed through blocks of _BLOCK = 8192 rows: each
block's words, norms, keep mask, absolute values and terms are made in
the sum's fixed scratch, and its energies and terms are added to
the slice's exact sums. Apart from a capped slice's walk, no pass of a
slice allocates a slice-sized array, so a block stays in cache and
memory is not mapped afresh for every slice. Every row's arithmetic is
its own, so the bits do not depend on the block size. Every product is
made by _product in row blocks of at most 16 * _BLOCK = 2^17
multiply-adds, which OpenBLAS computes in the calling thread; a larger
call would wake its thread pool, whose worker then spins for about
0.13 s of CPU after the product has returned. The blocks split rows only, and
no call takes a single row, which numpy would hand to gemv, so each
row has the bits of the one-call product.

The codebook is symmetric under x -> -x, and the fold uses it exactly.
Row N-1-i of the lex-ordered rest box is minus row i, so only the
uncapped block's upper half (from the zero row on) is multiplied and
the lower half is its IEEE negation: that block is odd bit for bit by
construction. Capped slices rest on two facts instead: a row of a
_product has the same bits in any call, and IEEE negation is exact, so
(-r) @ M[1:] - z1*M[0] is minus r @ M[1:] + z1*M[0] bit for bit. So
every word of slice -z1 is the bitwise negation of a word of slice z1,
and the two slices have the same count, terms, energies and p_max bit
for bit. A slice sum rounds once, whatever the order of its terms, so
only slices z1 = 0..m are computed and their partials are passed on as
[m, ..., 1, 0, 1, ..., m]. A diversity failure is reported at the
lex-first offending coefficient vector, as without the fold.

With an energy cap, the lattice-point walker numfields.EllipsoidWalker
(Fincke-Pohst over the Gram matrix G = M M^T) gives each slice its
candidates in lex order, and the slice multiplies only those. The
float test ||x||^2 <= p_lim still decides membership on the words a
full scan makes, so count, terms, energies and p_max are those of a
full scan bit for bit. The walker's docstring gives the rule by which
it never drops a word that the float test keeps. Without a cap, or
when the ball holds the box, the sum does no walk.

The lowest-energy carve takes its candidates from the same walker. It
starts from the ball whose volume holds target_size lattice points and
grows it until at least target_size candidates have a float norm at or
below its radius; from a radius of box_top on, the walk gives the whole
box, in _box's order and bits. The walker keeps every word at or below
the radius, so the target_size-th smallest energy of the box is among
the candidates, and so is every word at or below it. A partition finds
that energy, and a stable sort of just the words at or below it by
energy selects the same words in the same order as sorting the box by
(energy, lex), since the candidates come in lex order. The candidates'
words z @ M are bit-equal to the box's rows as long as the matmul
computes each row on its own, which the tests check against a full-box
carve and against one-call products.

Reported statistics: size counts every included codeword (the zero word
too, matching the catalogued codebook sizes); p_max is the maximum
squared norm over nonzero codewords; p_ave averages squared norms over
all included codewords including zero, which reproduces the catalogued
orthogonal-box values n*m*(m+1)/3 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DiversityError, DomainError, positive_int
from .numfields import EllipsoidWalker, GeneratorMatrix, _box

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
        if math.isfinite(self.p_lim) and self.p_max > self.p_lim + 1e-9:
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


def _as_matrix(gen: GeneratorMatrix | np.ndarray) -> np.ndarray:
    """The entries of gen; anything but a GeneratorMatrix is made one,
    so every generator is square and finite, with a finite nonzero
    determinant and a finite Gram matrix."""
    if not isinstance(gen, GeneratorMatrix):
        gen = GeneratorMatrix(gen)
    return gen.entries


# Rows per block. A block of words is 256 KB at n = 4, so it stays in
# L2 through a slice's passes over it; a product of 8192 rows of 4
# columns into 4 is 16 * 8192 = 2^17 multiply-adds, half of the
# 65536 * 4 up to which OpenBLAS's gemm runs in the calling thread.
_BLOCK = 8192


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """a @ b, one np.matmul per block of rows, written into out.

    A block is _BLOCK rows, fewer if a row takes more than 16
    multiply-adds, so each call stays within 16 * _BLOCK of them and
    OpenBLAS never wakes its thread pool, whose workers would spin on
    after the product returns. Only rows are split, so each row has the
    bits of one np.matmul call. numpy hands a one-row product to gemv, whose rows need
    not have gemm's bits, so no call takes one row: a lone row is taken
    twice.
    """
    if out is None:
        out = np.empty((len(a), b.shape[1]))
    step = max(2, 16 * _BLOCK // max(16, a.shape[1] * b.shape[1]))
    for i in range(0, len(a), step):
        if len(a) - i == 1:
            out[i] = np.matmul(a[[i, i]], b)[0]
        else:
            np.matmul(a[i:i + step], b, out=out[i:i + step])
    return out


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
    owned by one _Slices or one carve: words, norms, the keep mask, the
    reciprocals and terms of _terms, and the bins and high parts of
    _ExactSum.add."""

    def __init__(self, n: int):
        self.words = np.empty((_BLOCK, n))
        self.norms, self.r, self.t = np.empty((3, _BLOCK))
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


def _reduce(blocks, exponent: int, scratch: _Scratch):
    """(size, s, p_max, energy, bad) of the selected nonzero words that
    blocks() yields as (words, norms, rows) blocks of at most _BLOCK
    rows, in order: their count, the exact sums of their terms and of
    their float squared norms, and the largest norm. words is
    overwritten by its absolute values. bad is (rows[i], coordinate,
    |value|) of the first word i with a coordinate below DIVERSITY_EPS,
    or None; s and p_max are then 0.0.

    Where an _ExactSum has no result, blocks() is read again and
    math.fsum takes the values themselves. No term is taken once the
    energy's bins are dropped until the energy is settled, so an energy
    sum that overflows raises before any term can overflow, as when all
    the norms were summed first.
    """
    energy, s = _ExactSum(scratch), _ExactSum(scratch)
    size, p_max, bad = 0, 0.0, None
    for words, norms, rows in blocks():
        energy.add(norms)
        size += len(norms)
        if bad is not None or not len(norms):
            continue
        p_max = max(p_max, float(norms.max()))
        absx = np.abs(words, out=words)
        bad = _first_violation(absx)
        if bad is not None:
            bad = (rows[bad[0]],) + bad[1:]
        elif energy.exact:
            s.add(_terms(absx, exponent, scratch.r[:len(absx)], scratch.t[:len(absx)]))
    total = energy.result()
    if total is None:
        total = _fsum(blocks, lambda words, norms: norms)
    if bad is not None:
        return size, 0.0, 0.0, total, bad
    s_value = s.result() if energy.exact else None
    if s_value is None:
        s_value = _fsum(blocks, lambda words, norms: _terms(
            np.abs(words, out=words), exponent,
            scratch.r[:len(words)], scratch.t[:len(words)]))
    return size, s_value, p_max, total, None


def _fsum(blocks, values) -> float:
    """math.fsum of values(words, norms) over blocks(), as Python floats."""
    parts = []
    for words, norms, _ in blocks():
        parts += values(words, norms).tolist()
    return math.fsum(parts)


class _Slices:
    """The codebook split by its leading coefficient z1.

    Slice z1 holds the words z1*M[0] + r @ M[1:] for the rest vectors
    r = (z_2, ..., z_n) that the walker gives it. Without a cap, or when
    the ball holds the box, r runs over the whole rest box
    {-m..m}^(n-1), whose product rest @ M[1:] is the same for every
    slice, so it is built once. With a cap each slice multiplies only
    its own candidates. Either way a slice is streamed through blocks of
    _BLOCK rows in one fixed _Scratch: its words, their norms and masks,
    and its terms.
    """

    def __init__(self, M: np.ndarray, m: int, p_lim: float, exponent: int):
        self.M, self.p_lim, self.exponent = M, p_lim, exponent
        self.scratch = _Scratch(M.shape[1])
        self.walker = EllipsoidWalker(M @ M.T, m)
        self.capped = p_lim < self.walker.box_top
        if not self.capped:
            self.rest = _box(M.shape[0] - 1, m)
            # Row N-1-i of the box is minus row i: multiply the upper half
            # and negate it into the lower, so the block is odd bit for bit.
            zero = len(self.rest) // 2
            self.shared = np.empty((len(self.rest), M.shape[1]))
            _product(self.rest[zero:], M[1:], out=self.shared[zero:])
            np.negative(self.shared[:zero:-1], out=self.shared[:zero])

    def _blocks(self, z1: int, rest: np.ndarray):
        """(words, norms, rows) per block of slice z1's rest vectors: the
        words within the cap other than the zero word, their norms, and
        their row numbers in rest. The words of a whole block are the
        scratch's, overwritten by the next block."""
        scratch, shift = self.scratch, z1 * self.M[0]
        for i in range(0, len(rest), _BLOCK):
            r = rest[i:i + _BLOCK]
            words = scratch.words[:len(r)]
            if self.capped:
                block = _product(r, self.M[1:], out=words)
            else:
                block = self.shared[i:i + len(r)]
            # A column at a time: numpy adds a broadcast row four values
            # per inner loop, several times slower.
            for j, x in enumerate(shift):
                np.add(block[:, j], x, out=words[:, j])
            norms = np.einsum("ij,ij->i", words, words, out=scratch.norms[:len(r)])
            keep = np.less_equal(norms, self.p_lim, out=scratch.keep[:len(r)])
            if z1 == 0:
                keep &= r.any(axis=1)
            if np.count_nonzero(keep) == len(r):
                yield words, norms, range(i, i + len(r))
            else:
                yield words[keep], norms[keep], i + np.flatnonzero(keep)

    def stats(self, z1: int):
        """Sum/energy statistics of slice z1.

        Returns (count, s_partial, p_max, energy_partial, bad) where bad
        describes the first (lex order) diversity violation as a tuple
        (coefficient vector, coordinate index, coordinate value), or is
        None. All reductions are deterministic functions of the slice.
        """
        rest = (self.walker.vectors(z1, self.p_lim)[:, 1:] if self.capped
                else self.rest)
        size, s_partial, p_max, energy, bad = _reduce(
            lambda: self._blocks(z1, rest), self.exponent, self.scratch)
        if bad is not None:
            row, coord, value = bad
            bad = ((z1, *map(int, rest[row])), coord, value)
        # The zero word, in slice 0 whatever the cap, counts but has no term.
        return size + (z1 == 0), s_partial, p_max, energy, bad


def _combine(parts, lattice_name, n, m, p_lim, exponent):
    """Fold per-slice statistics in ascending-z1 order."""
    for count, s, pmax, energy, bad in parts:
        if bad is not None:
            raise DiversityError(*bad)
    size = sum(p[0] for p in parts)
    s_value = math.fsum(p[1] for p in parts)
    p_max = max((p[2] for p in parts if p[0]), default=0.0)
    energy = math.fsum(p[3] for p in parts)
    p_ave = energy / size if size else 0.0
    return SumReport(
        lattice_name=lattice_name, n=n, m=m, p_lim=p_lim,
        size=size, p_max=p_max, p_ave=p_ave, s_value=s_value,
        exponent=exponent)


def inverse_norm_power_sum(
    gen: GeneratorMatrix | np.ndarray,
    m: int,
    p_lim: float = math.inf,
    exponent: int = 3,
    lattice_name: str = "",
) -> SumReport:
    """S over the box-and-ball codebook, with energy statistics.

    Work is partitioned by the leading coefficient z1. Only the slices
    z1 >= 0 are computed, since slice -z1 mirrors slice z1; each slice
    is reduced exactly, as math.fsum would, and partials are combined
    in ascending z1 order, so the result is deterministic.
    """
    m, exponent = _check_box_args(m, p_lim, exponent)
    M = _as_matrix(gen)
    slices = _Slices(M, m, p_lim, exponent)
    parts = [slices.stats(z1) for z1 in range(m + 1)]
    parts = parts[:0:-1] + parts
    # A mirrored slice -z1 reports slice z1's violation, whose mirror
    # need not be the lex-first one there: rescan that slice.
    first_bad = next((i for i, p in enumerate(parts) if p[4] is not None), m)
    if first_bad < m:
        parts[first_bad] = slices.stats(first_bad - m)
    return _combine(parts, lattice_name, M.shape[0], m, p_lim, exponent)


def _ball_candidates(
    M: np.ndarray, m: int, target_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient vectors z, words z @ M and float squared norms of the
    box's words in a ball that holds its target_size lowest-energy words.

    The first radius is the one whose ball volume fits target_size
    lattice points; it grows until the float norms of at least
    target_size candidates are at or below it. The walker keeps every
    box word whose float norm is at or below the radius, so the
    target_size-th smallest norm of the box is then among the
    candidates, and so is every word at or below it. In the limit the
    candidates are the whole box.
    """
    n = M.shape[0]
    walker = EllipsoidWalker(M @ M.T, m)
    ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    p = (target_size * abs(float(np.linalg.det(M))) / ball) ** (2 / n)
    while True:
        # From box_top on, the walk gives the whole box, as _box does.
        whole = not p < walker.box_top
        z = walker.vectors(None, p)
        x = _product(z, M)
        norms = np.einsum("ij,ij->i", x, x)
        inside = np.count_nonzero(norms <= p)
        if whole or inside >= target_size:
            return z, x, norms
        # The box cuts the ball, so the count grows slower than the
        # volume: aim past the target.
        grow = 1.1 * max(1.1, (target_size / inside) ** (2 / n))
        p = p * grow if p > 0 else walker.box_top


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
    M = _as_matrix(gen)
    n = M.shape[0]
    box_size = (2 * m + 1) ** n
    target_size = positive_int(target_size, "target_size")
    if target_size > box_size:
        raise DomainError(
            "target_size %d exceeds box size %d" % (target_size, box_size))

    z, x, norms = _ball_candidates(M, m, target_size)
    # Only rows at or below the target_size-th smallest energy can be
    # selected. The candidates are in lex order, so a stable sort of just
    # those rows by energy gives the box's (energy, lex) prefix.
    cut = np.partition(norms, target_size - 1)[target_size - 1]
    rows = np.flatnonzero(norms <= cut)
    sel = rows[np.argsort(norms[rows], kind="stable")[:target_size]]

    zs, xs, ns = z[sel], x[sel], norms[sel]
    nonzero = np.any(zs != 0, axis=1)
    xs, ns = xs[nonzero], ns[nonzero]

    def blocks():
        for i in range(0, len(ns), _BLOCK):
            yield xs[i:i + _BLOCK], ns[i:i + _BLOCK], range(i, i + _BLOCK)

    _, s_value, p_max, energy, bad = _reduce(blocks, exponent, _Scratch(n))
    if bad is not None:
        first, coord, value = bad
        raise DiversityError(tuple(map(int, zs[nonzero][first])), coord, value)
    p_ave = energy / target_size
    return SumReport(
        lattice_name=lattice_name, n=n, m=m, p_lim=math.inf,
        size=target_size, p_max=p_max, p_ave=p_ave, s_value=s_value,
        exponent=exponent, target_size=target_size)


def table_sweep(sweeps, exponent: int = 3) -> list[SumReport]:
    """One SumReport per TableRow of each (LatticeSpec, rows) pair of
    sweeps, computed independently, in order."""
    out = []
    for lattice, rows in sweeps:
        for row in rows:
            if row.target_size is not None:
                out.append(carve_lowest_energy(
                    lattice.generator, row.m, row.target_size,
                    exponent=exponent, lattice_name=lattice.name))
            else:
                out.append(inverse_norm_power_sum(
                    lattice.generator, row.m, row.p_lim, exponent=exponent,
                    lattice_name=lattice.name))
    return out


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
