"""Eavesdropper decision metrics on the fast-fading wiretap channel.

Combines an inverse-norm-power sum with the channel prefactor to estimate
the probability that the eavesdropper decodes correctly, and ranks candidate
lattices so the confusion/performance tradeoff is visible in one table.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

from .constellation import SumReport, aligned
from .errors import DomainError, positive_int
from .numfields import CATALOGUE

__all__ = [
    "ChannelParams",
    "ComparisonEntry",
    "ComparisonReport",
    "compare_report",
    "db_to_linear",
    "eve_correct_probability",
]


def db_to_linear(db: float) -> float:
    """Convert an SNR quoted in dB to linear scale (DomainError on overflow)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError("%s dB overflows a linear SNR" % db) from None


@dataclass(frozen=True)
class ChannelParams:
    """Eavesdropper channel: average SNR gamma_e (linear), the volume of
    the legitimate user's lattice cell, and the ambient dimension."""

    gamma_e: float
    vol_b: float
    n: int

    def __post_init__(self) -> None:
        for name, rule in (("gamma_e", "a positive finite real (linear SNR)"),
                           ("vol_b", "positive and finite")):
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, numbers.Real) or not 0 < x < math.inf:
                raise DomainError("%s must be %s" % (name, rule))
            object.__setattr__(self, name, float(x))
        object.__setattr__(self, "n", positive_int(self.n, "dimension n"))


def eve_correct_probability(params: ChannelParams, s_value: float) -> float:
    """(1/(4 gamma_e^2))^(n/2) * vol_b * s_value.

    The sum must come from a constellation of the same dimension as
    ``params.n``; the prefactor is pure channel geometry.
    """
    if not (s_value >= 0):
        raise DomainError("s_value must be nonnegative")
    prefactor = (1.0 / (4.0 * params.gamma_e**2)) ** (params.n / 2.0)
    return prefactor * params.vol_b * s_value


@dataclass(frozen=True)
class ComparisonEntry:
    rank: int
    lattice: str
    m: int
    size: int
    s_value: float
    probability: float
    dpmin: float | None


@dataclass(frozen=True)
class ComparisonReport:
    """Constellations ranked by Eve's correct-decision probability.

    Rank 1 is the most confusing choice (lowest probability). The d_p,min
    column shows what the ranking costs the legitimate user.
    """

    params: ChannelParams
    entries: tuple[ComparisonEntry, ...]

    def to_json(self) -> str:
        doc = asdict(self.params)
        doc["entries"] = [asdict(e) for e in self.entries]
        return json.dumps(doc, indent=2, sort_keys=True)

    def render_text(self) -> str:
        rows = [("rank", "lattice", "m", "size", "s_value", "p_correct", "dpmin")]
        for e in self.entries:
            rows.append((
                str(e.rank), e.lattice or "-", str(e.m), str(e.size),
                "%.6e" % e.s_value, "%.6e" % e.probability,
                "-" if e.dpmin is None else "%.8f" % e.dpmin))
        return aligned(rows)


def compare_report(reports: list[SumReport] | tuple[SumReport, ...],
                   params: ChannelParams) -> ComparisonReport:
    """Rank sum reports by eavesdropper correct-decision probability.

    All reports must share the dimension declared in ``params``; ties in
    probability are broken by lattice name, then box bound.
    """
    if not reports:
        raise DomainError("compare_report needs at least one report")
    dims = {r.n for r in reports}
    if len(dims) != 1 or params.n not in dims:
        raise DomainError(
            "mixed dimensions %s do not match channel dimension %d"
            % (sorted(dims), params.n))
    scored = [(eve_correct_probability(params, r.s_value), r) for r in reports]
    scored.sort(key=lambda pr: (pr[0], pr[1].lattice_name, pr[1].m))
    entries = tuple(
        ComparisonEntry(
            rank=i + 1, lattice=r.lattice_name, m=r.m, size=r.size,
            s_value=r.s_value, probability=p,
            dpmin=getattr(CATALOGUE.get(r.lattice_name), "dpmin", None))
        for i, (p, r) in enumerate(scored))
    return ComparisonReport(params=params, entries=entries)
