"""Eavesdropper decision metrics on the fast-fading wiretap channel.

Combines an inverse-norm-power sum with the channel prefactor to estimate
the probability that the eavesdropper decodes correctly, and ranks candidate
lattices so the confusion/performance tradeoff is visible in one table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .constellation import SumReport
from .errors import DomainError
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
    """Convert an SNR quoted in dB to linear scale."""
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Eavesdropper channel: average SNR gamma_e (linear), the volume of
    the legitimate user's lattice cell, and the ambient dimension."""

    gamma_e: float
    vol_b: float
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.gamma_e, (int, float)) and self.gamma_e > 0):
            raise DomainError("gamma_e must be a positive real (linear SNR)")
        if not (isinstance(self.vol_b, (int, float)) and self.vol_b > 0):
            raise DomainError("vol_b must be positive")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError("dimension n must be a positive integer")


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

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "lattice": self.lattice,
            "m": self.m,
            "size": self.size,
            "s_value": self.s_value,
            "probability": self.probability,
            "dpmin": self.dpmin,
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Constellations ranked by Eve's correct-decision probability.

    Rank 1 is the most confusing choice (lowest probability). The d_p,min
    column shows what the ranking costs the legitimate user.
    """

    params: ChannelParams
    entries: tuple[ComparisonEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "gamma_e": self.params.gamma_e,
            "vol_b": self.params.vol_b,
            "n": self.params.n,
            "entries": [e.to_json_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        header = ("rank", "lattice", "m", "size", "s_value",
                  "p_correct", "dpmin")
        rows = [header]
        for e in self.entries:
            rows.append((
                str(e.rank), e.lattice or "-", str(e.m), str(e.size),
                "%.6e" % e.s_value, "%.6e" % e.probability,
                "-" if e.dpmin is None else "%.8f" % e.dpmin))
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)).rstrip()
                 for r in rows]
        return "\n".join(lines)


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
