"""Finite codebooks and truncated inverse norm power sums.

Codewords are lattice points x = z M with integer coefficient vectors z
ranging over the box {-m..m}^n, optionally intersected with the energy
ball ||x||^2 <= p_lim or carved down to the lowest-energy subset of a
target size. The eavesdropper-confusion metric is

    S = sum over included nonzero x of prod_i |x_i|^(-exponent)

(the inverse norm power sum; exponent 3 corresponds to the fast-fading
correct-decision probability). The sums span many orders of magnitude,
so each coefficient slice's terms and energies are summed exactly and
rounded once. _exact_sum does that with integer mantissa parts binned
by exponent and returns the bits math.fsum would, without a Python
float per term. The per-slice partials are combined with math.fsum in
fixed ascending order of the leading coefficient. That also makes
runs bit-identical for any thread count: threads compute whole slices
and the combination order never depends on scheduling.

Slice z1 is z1*M[0] plus the block rest @ M[1:] over the rest box
{-m..m}^(n-1); that block is built once per sum. With jobs > 1 the
slices are mapped, in order, over min(jobs, cores, m + 1) threads that
share it; numpy releases the GIL in the whole-slice work. A slice that
keeps every row is written into its thread's buffer, reused from slice
to slice, and reduced in place.

The codebook is symmetric under x -> -x, and the fold uses it exactly.
Row N-1-i of the lex-ordered rest box is minus row i, so only the
block's upper half (from the zero row on) is multiplied and the lower
half is its IEEE negation, which is exact: the block is odd bit for bit
by construction. So every word of slice -z1 is the bitwise negation of
a word of slice z1, and the two slices have the same count, terms,
energies and p_max bit for bit. A slice sum rounds once, whatever the
order of its terms, so only slices z1 = 0..m are computed and their
partials are passed on as [m, ..., 1, 0, 1, ..., m]. A diversity
failure is reported at the lex-first offending coefficient vector, as
without the fold.

With an energy cap, the lattice-point walker numfields.EllipsoidWalker
(Fincke-Pohst over the Gram matrix G = M M^T) gives each slice the
ascending rows of the rest box whose words can lie in the ball. Only
those rows are gathered from the shared block, and the float test
||x||^2 <= p_lim still decides membership on the same words, so count,
terms, energies and p_max are those of a full scan bit for bit. The
walker's docstring gives the rule by which it never drops a word that
the float test keeps. Without a cap, or when the ball holds the box,
it returns the whole slice and does no walk.

The lowest-energy carve takes its candidates from the same walker. It
starts from the ball whose volume holds target_size lattice points and
grows it until at least target_size candidates have a float norm at or
below its radius; in the limit the candidates are the whole box. The
walker keeps every word at or below the radius, so the target_size-th
smallest energy of the box is among the candidates, and so is every
word at or below it. A partition finds that energy, and only the words
at or below it are sorted by (energy, lex), which selects the same
words in the same order as sorting the box. The candidates' words
z @ M are bit-equal to the box's rows as long as the matmul computes
each row on its own, which the tests check against a full-box carve.

Reported statistics: size counts every included codeword (the zero word
too, matching the catalogued codebook sizes); p_max is the maximum
squared norm over nonzero codewords; p_ave averages squared norms over
all included codewords including zero, which reproduces the catalogued
orthogonal-box values n*m*(m+1)/3 exactly.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DiversityError, DomainError
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
        if self.size > 1 and not self.s_value > 0:
            raise DomainError("s_value must be positive for nontrivial codebooks")


@dataclass(frozen=True)
class TableRow:
    """Sweep configuration: a box bound plus energy cap or target size."""

    m: int
    p_lim: float = math.inf
    target_size: int | None = None

    def __post_init__(self):
        if self.target_size is not None and math.isfinite(self.p_lim):
            raise DomainError("p_lim and target_size are exclusive")


def _check_box_args(m: int, p_lim: float, exponent: int) -> None:
    if not (isinstance(m, int) and m >= 1):
        raise DomainError("box bound m must be a positive integer")
    if not (p_lim > 0):
        raise DomainError("p_lim must be positive")
    if not (isinstance(exponent, int) and exponent >= 1):
        raise DomainError("exponent must be a positive integer")


def _as_matrix(gen: GeneratorMatrix | np.ndarray) -> np.ndarray:
    """Accept a GeneratorMatrix or any square array-like."""
    entries = np.asarray(getattr(gen, "entries", gen), dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise DomainError("generator must be a square matrix")
    return entries


def _first_violation(absx: np.ndarray) -> tuple[int, int, float] | None:
    """(row, coordinate, value) of the first row with a coordinate below
    DIVERSITY_EPS, or None. The row minimum is taken column by column."""
    row_min = absx[:, 0].copy()
    for j in range(1, absx.shape[1]):
        np.minimum(row_min, absx[:, j], out=row_min)
    if not float(row_min.min()) < DIVERSITY_EPS:
        return None
    first = int(np.argmax(row_min < DIVERSITY_EPS))
    coord = int(np.argmin(absx[first]))
    return first, coord, float(absx[first, coord])


# Terms per chunk of _exact_sum. Up to 2^26 terms of under 2^27 units each
# keep a bin's sum below 2^53 units, so exact; a smaller chunk bounds the
# temporaries.
_CHUNK = 1 << 20
_LOW = (1 << 26) - 1


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum(values), bit for bit, from per-exponent bins.

    Each float64 is split into its value with the low 26 mantissa bits
    cleared and the remainder, both exact. Binned by sign and biased
    exponent e, the high parts are multiples of 2^(e-1049) below
    2^(e-1022) and the low parts multiples of 2^(e-1075) below
    2^(e-1049) (subnormals, in bin 0, scale as e = 1), so np.bincount
    adds each bin exactly. The bins sum to the exact total, and
    math.fsum of them rounds it once, as math.fsum of the values does.
    Non-finite values, input of only zeros and totals that could
    overflow go to math.fsum itself.
    """
    a = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = a.view(np.int64)
    parts = []
    for i in range(0, len(a), _CHUNK):
        chunk, b = a[i:i + _CHUNK], bits[i:i + _CHUNK]
        bins = (b.view(np.uint64) >> 52).view(np.int64)
        high = (b & ~_LOW).view(np.float64)
        sums = np.bincount(bins, high)
        used = np.flatnonzero(sums)
        # len(a) terms below 2^(top-1022) stay below 2^1022, so neither
        # the bins nor fsum's own partials can overflow.
        if len(used) and int((used & 0x7FF).max()) + len(a).bit_length() > 2044:
            return math.fsum(a.tolist())
        parts += sums[used].tolist()
        low = np.bincount(bins, chunk - high)
        parts += low[low != 0].tolist()
    if not parts:  # every value is +0.0 or -0.0
        return math.fsum(a.tolist())
    return math.fsum(parts)


def _terms(absx: np.ndarray, exponent: int) -> np.ndarray:
    """prod_i |x_i|^(-exponent) per row: the product ((a0*a1)*a2)*...,
    its reciprocal r, then r^exponent by left-to-right square and
    multiply. Every step is one correctly rounded IEEE operation, so
    the bits do not depend on the CPU's SIMD dispatch, as np.power's do."""
    r = absx[:, 0].copy()
    for j in range(1, absx.shape[1]):
        r *= absx[:, j]
    np.divide(1.0, r, out=r)
    out = r.copy()
    # A large exponent overflows to inf, which the exact sum passes on.
    with np.errstate(over="ignore"):
        for bit in bin(exponent)[3:]:
            out *= out
            if bit == "1":
                out *= r
    return out


def _reduce(words: np.ndarray, norms: np.ndarray, exponent: int):
    """(s, p_max, energy, bad) of selected nonzero words and their float
    squared norms: the exact sums of the terms and of the norms, and the
    largest norm. bad is (row, coordinate, |value|) of the first word
    with a coordinate below DIVERSITY_EPS, or None; s and p_max are then
    0.0. words is overwritten by its absolute values."""
    energy = _exact_sum(norms)
    if not len(norms):
        return 0.0, 0.0, energy, None
    absx = np.abs(words, out=words)
    bad = _first_violation(absx)
    if bad is not None:
        return 0.0, 0.0, energy, bad
    return _exact_sum(_terms(absx, exponent)), float(norms.max()), energy, None


class _Slices:
    """The codebook split by its leading coefficient z1.

    Slice z1 holds the words z1*M[0] + r @ M[1:] for the rows r of the
    rest box {-m..m}^(n-1) that the walker visits. The product
    rest @ M[1:] is the same for every slice, so it is built once, and
    whole slices are written into one buffer per thread, one after the
    other. Everything else is only read after __init__, so threads may
    share one _Slices.
    """

    def __init__(self, M: np.ndarray, m: int, p_lim: float, exponent: int):
        self.M, self.m, self.p_lim, self.exponent = M, m, p_lim, exponent
        self.rest = _box(M.shape[0] - 1, m)
        # Row N-1-i of the box is minus row i: multiply the upper half and
        # negate it into the lower half, so the block is odd bit for bit.
        self.zero = len(self.rest) // 2
        self.shared = np.empty((len(self.rest), M.shape[1]))
        np.matmul(self.rest[self.zero:], M[1:], out=self.shared[self.zero:])
        np.negative(self.shared[:self.zero:-1], out=self.shared[:self.zero])
        self.local = threading.local()
        self.walker = EllipsoidWalker(M @ M.T, m)

    def words(self, z1: int) -> tuple[np.ndarray | None, np.ndarray]:
        """(rows, words) of slice z1 that may lie in the ball, in lex
        order; rows None stands for the whole rest box, whose words
        overwrite those of this thread's previous whole slice."""
        rows = self.walker.rows(z1, self.p_lim)
        if rows is None:
            if not hasattr(self.local, "whole"):
                self.local.whole = np.empty_like(self.shared)
            return None, np.add(self.shared, z1 * self.M[0], out=self.local.whole)
        block = self.shared[rows]
        block += z1 * self.M[0]
        return rows, block

    def stats(self, z1: int):
        """Sum/energy statistics of slice z1.

        Returns (count, s_partial, p_max, energy_partial, bad) where bad
        describes the first (lex order) diversity violation as a tuple
        (coefficient vector, coordinate index, coordinate value), or is
        None. All reductions are deterministic functions of the slice.
        """
        rows, block = self.words(z1)
        norms = np.einsum("ij,ij->i", block, block)
        keep = norms <= self.p_lim
        count = int(np.count_nonzero(keep))
        if z1 == 0:
            # The zero word counts, but has no term, and its energy is +0.0,
            # which leaves the exact energy sum as it is.
            keep[self.zero if rows is None else np.searchsorted(rows, self.zero)] = False
        gathered = z1 == 0 or count < len(norms)
        if gathered:
            block, norms = block[keep], norms[keep]
        # block is this slice's own: a gather, or the whole-slice buffer.
        s_partial, p_max, energy, bad = _reduce(block, norms, self.exponent)
        if bad is not None:
            first, coord, value = bad
            row = np.flatnonzero(keep)[first] if gathered else first
            rest = self.rest[row if rows is None else rows[row]]
            bad = ((z1, *map(int, rest)), coord, value)
        return count, s_partial, p_max, energy, bad


def _check_jobs(jobs) -> None:
    if not (isinstance(jobs, int) and jobs >= 1):
        raise DomainError("jobs must be a positive integer")


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
    gen: GeneratorMatrix,
    m: int,
    p_lim: float = math.inf,
    exponent: int = 3,
    jobs: int = 1,
    lattice_name: str = "",
) -> SumReport:
    """S over the box-and-ball codebook, with energy statistics.

    Work is partitioned by the leading coefficient z1. Only the slices
    z1 >= 0 are computed, since slice -z1 mirrors slice z1; each slice
    is reduced exactly, as math.fsum would, and partials are combined
    in ascending z1 order, so the result is bit-identical for any
    thread count. With jobs > 1 the slices are mapped over
    min(jobs, cores, m + 1) threads sharing one _Slices.
    """
    _check_box_args(m, p_lim, exponent)
    _check_jobs(jobs)
    M = _as_matrix(gen)
    slices = _Slices(M, m, p_lim, exponent)
    workers = min(jobs, os.cpu_count() or 1, m + 1)
    if workers == 1:
        parts = [slices.stats(z1) for z1 in range(m + 1)]
    else:
        # Imported here, so that serial runs do not pay for the import.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(slices.stats, range(m + 1)))
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
        whole = not p < walker.box_top
        if whole:
            z = _box(n, m)
        else:
            z = walker.vectors(None, p).astype(float)
        x = z @ M
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
    _check_box_args(m, math.inf, exponent)
    M = _as_matrix(gen)
    n = M.shape[0]
    box_size = (2 * m + 1) ** n
    if not (isinstance(target_size, int) and 1 <= target_size):
        raise DomainError("target_size must be a positive integer")
    if target_size > box_size:
        raise DomainError(
            "target_size %d exceeds box size %d" % (target_size, box_size))

    z, x, norms = _ball_candidates(M, m, target_size)
    # Only rows at or below the target_size-th smallest energy can be
    # selected; sorting just those gives the same (energy, lex) prefix.
    cut = np.partition(norms, target_size - 1)[target_size - 1]
    rows = np.flatnonzero(norms <= cut)
    # Primary key: energy; then the coefficient columns, lexicographic.
    order = np.lexsort(tuple(z[rows, j] for j in reversed(range(n)))
                       + (norms[rows],))
    sel = rows[order[:target_size]]

    zs, xs, ns = z[sel], x[sel], norms[sel]
    nonzero = np.any(zs != 0, axis=1)
    s_value, p_max, energy, bad = _reduce(xs[nonzero], ns[nonzero], exponent)
    if bad is not None:
        first, coord, value = bad
        raise DiversityError(tuple(map(int, zs[nonzero][first])), coord, value)
    p_ave = energy / target_size
    return SumReport(
        lattice_name=lattice_name, n=n, m=m, p_lim=math.inf,
        size=target_size, p_max=p_max, p_ave=p_ave, s_value=s_value,
        exponent=exponent, target_size=target_size)


def table_sweep(sweeps, exponent: int = 3, jobs: int = 1) -> list[SumReport]:
    """One SumReport per TableRow of each (LatticeSpec, rows) pair of
    sweeps, computed independently, in order.

    Each sum maps its slices over up to jobs threads; carves run in
    this thread."""
    _check_jobs(jobs)
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
                    jobs=jobs, lattice_name=lattice.name))
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
