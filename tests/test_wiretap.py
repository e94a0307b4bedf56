"""Channel prefactor algebra and lattice comparison rankings."""

import json
import math

import numpy as np
import pytest

from latticesec.constellation import SumReport
from latticesec.errors import DomainError
from latticesec.wiretap import (
    ChannelParams,
    ComparisonReport,
    compare_report,
    db_to_linear,
    eve_correct_probability,
)


def _report(name, m, s, n=4, size=343):
    return SumReport(name, n, m, math.inf, size, 4.0 * m * m,
                     4.0 * m * (m + 1) / 3.0, s)


def test_unit_prefactor_returns_sum():
    gamma, n = 3.0, 4
    params = ChannelParams(gamma, (4.0 * gamma**2) ** (n / 2), n)
    assert eve_correct_probability(params, 123.456) == 123.456


def test_doubling_gamma_scales_by_sixteenth():
    a = eve_correct_probability(ChannelParams(2.0, 1.0, 4), 7.0)
    b = eve_correct_probability(ChannelParams(4.0, 1.0, 4), 7.0)
    assert b / a == pytest.approx(1.0 / 16.0, rel=1e-15)


def test_zero_sum_zero_probability():
    assert eve_correct_probability(ChannelParams(1.0, 1.0, 4), 0.0) == 0.0


def test_probability_decreases_in_gamma():
    probs = [eve_correct_probability(ChannelParams(g, 2.0, 4), 5.0)
             for g in (1.0, 2.0, 4.0, 8.0)]
    assert probs == sorted(probs, reverse=True)
    assert len(set(probs)) == len(probs)


def test_params_validation():
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            ChannelParams(bad, 1.0, 4)
        with pytest.raises(DomainError):
            ChannelParams(1.0, bad, 4)
    with pytest.raises(DomainError):
        ChannelParams(1.0, 1.0, 0)
    with pytest.raises(DomainError):
        eve_correct_probability(ChannelParams(1.0, 1.0, 4), -1.0)


def test_params_take_numpy_reals_and_refuse_bools():
    params = ChannelParams(np.float32(10.0), np.int64(2), np.int64(4))
    assert (params.gamma_e, params.vol_b, params.n) == (10.0, 2.0, 4)
    assert [type(params.gamma_e), type(params.vol_b), type(params.n)] == [
        float, float, int]
    doc = compare_report([_report("lambda2", 3, 1.16395e7)], params)
    assert json.loads(doc.to_json())["n"] == 4
    for bad in ({"n": True}, {"gamma_e": True}, {"vol_b": True},
                {"gamma_e": "10"}, {"n": 4.0}, {"vol_b": math.nan},
                {"gamma_e": math.inf}, {"vol_b": np.inf}):
        with pytest.raises(DomainError):
            ChannelParams(**{"gamma_e": 10.0, "vol_b": 1.0, "n": 4, **bad})


def test_probability_out_of_float_range_is_a_domain_error():
    # Today's formula keeps its bits wherever it stays in range.
    assert eve_correct_probability(ChannelParams(1e-75, 1.0, 4), 1.0) == \
        (1.0 / (4.0 * 1e-75**2)) ** 2.0
    for gamma, vol_b in ((1e-100, 1.0), (1e200, 1.0), (1e-200, 1.0),
                         (1e-77, 1.0), (1.0, 1e308)):
        with pytest.raises(DomainError, match="float range"):
            eve_correct_probability(ChannelParams(gamma, vol_b, 4), 1.2e6)
    # An infinite sum stays infinite.
    assert eve_correct_probability(ChannelParams(1.0, 1.0, 4), math.inf) == math.inf


def test_db_conversion():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(20.0) == pytest.approx(100.0)
    with pytest.raises(DomainError):
        db_to_linear(1e5)


def test_ranking_published_m3_values():
    # published box sums at m = 3 for the two orthonormal rotations
    reports = [_report("lambda1", 3, 2.49382e11),
               _report("lambda2", 3, 1.16395e7)]
    doc = compare_report(reports, ChannelParams(10.0, 1.0, 4))
    assert [e.lattice for e in doc.entries] == ["lambda2", "lambda1"]
    assert [e.rank for e in doc.entries] == [1, 2]
    # the more confusing lattice concedes product distance
    assert doc.entries[0].dpmin == pytest.approx(1.0 / 40.0)
    assert doc.entries[1].dpmin == pytest.approx(725.0**-0.5)
    assert doc.entries[1].dpmin > doc.entries[0].dpmin


def test_sphere_carving_beats_plain_box():
    # spherical shaping at m = 7 vs the m = 3 box of the second rotation
    reports = [_report("lambda3", 7, 7130240.828380058, size=2405),
               _report("lambda2", 3, 11649485.316265877)]
    doc = compare_report(reports, ChannelParams(10.0, 1.0, 4))
    assert doc.entries[0].lattice == "lambda3"


def test_ranking_invariant_under_common_gamma():
    reports = [_report("lambda1", 3, 2.49382e11),
               _report("lambda2", 3, 1.16395e7),
               _report("lambda3", 2, 5.0e6)]
    orders = []
    for gamma in (0.5, 2.0, 30.0):
        doc = compare_report(reports, ChannelParams(gamma, 1.0, 4))
        orders.append([e.lattice for e in doc.entries])
    assert orders[0] == orders[1] == orders[2]


def test_singleton_and_unknown_lattice():
    doc = compare_report([_report("custom", 1, 10.0)],
                         ChannelParams(1.0, 1.0, 4))
    assert len(doc.entries) == 1
    assert doc.entries[0].rank == 1
    assert doc.entries[0].dpmin is None


def test_mixed_dimensions_rejected():
    good = _report("lambda1", 1, 10.0)
    bad = SumReport("x", 2, 1, math.inf, 9, 4.0, 2.0, 5.0)
    with pytest.raises(DomainError):
        compare_report([good, bad], ChannelParams(1.0, 1.0, 4))
    with pytest.raises(DomainError):
        compare_report([good], ChannelParams(1.0, 1.0, 2))
    with pytest.raises(DomainError):
        compare_report([], ChannelParams(1.0, 1.0, 4))


def test_json_and_text_rendering():
    doc = compare_report([_report("lambda2", 3, 1.16395e7)],
                         ChannelParams(10.0, 2.0, 4))
    parsed = json.loads(doc.to_json())
    assert parsed["gamma_e"] == 10.0
    assert parsed["vol_b"] == 2.0
    assert parsed["entries"][0]["lattice"] == "lambda2"
    assert isinstance(doc, ComparisonReport)
    text = doc.render_text()
    lines = text.splitlines()
    assert lines[0].split() == [
        "rank", "lattice", "m", "size", "s_value", "p_correct", "dpmin"]
    assert len(lines) == 2
