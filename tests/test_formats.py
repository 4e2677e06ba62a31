"""Emitters and parsers for tables and traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afga.asymptotics import ContinuumTrace, integrate_continuum
from afga.formats import (
    AFGA_COLUMNS,
    _row_values,
    continuum_csv,
    emit_afga_txt,
    err_trace_csv,
    parse_afga_txt,
    schedule_csv,
    search_csv,
)
from afga.qubit_sim import ErrTrace, run_afga_qubit
from afga.schedule import AfgaParams, ScheduleRow, build_schedule
from afga.search_sim import SearchTrace, run_afga_search

GOLDEN = AfgaParams(math.radians(173.15), math.radians(135.0), 20)

# numpy float64 values whose repr is easy to get wrong: 1/10, 1/3, -0.0
PIN = np.array([0.1, 1.0 / 3.0, -0.0])


def _golden_doc() -> str:
    return emit_afga_txt(build_schedule(GOLDEN), GOLDEN)


def test_emit_header_and_first_row():
    lines = _golden_doc().splitlines()
    assert lines[0] == "gamma(degs) = 1.7315e+02"
    assert lines[1] == "del_lam(degs) = 1.3500e+02"
    assert lines[2] == "num_steps = 20"
    assert lines[3] == "\t".join(AFGA_COLUMNS)
    assert lines[4] == (
        "0\t1.7315e+02\t1.5735e+02\t-8.4337e-02\t-8.4337e-02\t-9.9286e-01"
        "\t1.1927e-01\t0.0000e+00\t-9.9286e-01"
    )
    assert len(lines) == 4 + 21


def test_emit_normalizes_negative_zero():
    params = AfgaParams(0.0, 2.0, 0)
    row = ScheduleRow(
        0,
        -0.0,
        0.0,
        -0.0,
        np.array([-0.0, 0.0, 1.0]),
        np.array([0.0, -0.0, 1.0]),
    )
    doc = emit_afga_txt([row], params)
    assert "-0.0000e+00" not in doc
    assert doc.splitlines()[4].split("\t")[1] == "0.0000e+00"


def test_emit_zero_steps():
    params = AfgaParams(1.0, 1.0, 0)
    doc = emit_afga_txt(build_schedule(params), params)
    assert len(doc.splitlines()) == 5


def test_round_trip():
    table = parse_afga_txt(_golden_doc())
    assert table.gamma_degs == pytest.approx(173.15, abs=1e-2)
    assert table.del_lam_degs == pytest.approx(135.0, abs=1e-2)
    assert table.num_steps == 20
    assert table.data.shape == (21, 9)
    np.testing.assert_array_equal(table.data[:, 0], np.arange(21))
    rows = build_schedule(GOLDEN)
    for i, row in enumerate(rows):
        assert table.data[i, 1] == pytest.approx(
            math.degrees(row.gamma_j), abs=max(1e-3, 1e-4 * abs(table.data[i, 1]))
        )


def test_parse_rejects_truncated():
    doc = _golden_doc()
    with pytest.raises(ValueError):
        parse_afga_txt("\n".join(doc.splitlines()[:3]))
    with pytest.raises(ValueError):
        parse_afga_txt("\n".join(doc.splitlines()[:10]))


def test_parse_rejects_header_without_equals():
    lines = _golden_doc().splitlines()
    lines[1] = "del_lam(degs) 1.3500e+02"
    with pytest.raises(ValueError, match=r"del_lam\(degs\) 1\.3500e\+02"):
        parse_afga_txt("\n".join(lines))


def test_schedule_csv_full_precision():
    rows = build_schedule(GOLDEN)
    lines = schedule_csv(rows).splitlines()
    assert lines[0] == "j,gam_j_degs,alp_j_degs,vr_x,vr_y,vr_z,vs_x,vs_y,vs_z"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == math.degrees(rows[0].gamma_j)
    assert float(first[3]) == rows[0].r_j[0]
    pinned = [
        ScheduleRow(0, math.pi, 0.0, -0.0, PIN, PIN[::-1]),
        ScheduleRow(1, 0.0, 0.0, math.pi / 2, np.array([0.0, -0.0, 1.0]), PIN),
    ]
    assert schedule_csv(pinned) == (
        "j,gam_j_degs,alp_j_degs,vr_x,vr_y,vr_z,vs_x,vs_y,vs_z\n"
        "0,180.0,-0.0,0.1,0.3333333333333333,-0.0,-0.0,0.3333333333333333,0.1\n"
        "1,0.0,90.0,0.0,-0.0,1.0,0.1,0.3333333333333333,-0.0\n"
    )


def test_schedule_csv_prints_no_negative_zero():
    # vs_y is zero by construction on every row, vr_y where gamma_j == 0
    for params in (GOLDEN, AfgaParams(math.radians(100.0), math.radians(60.0), 60)):
        for line in schedule_csv(build_schedule(params)).splitlines()[1:]:
            fields = line.split(",")
            assert "-0.0" not in (fields[4], fields[7]), line


def test_err_trace_csv():
    trace = run_afga_qubit(AfgaParams(1.0, 1.0, 5))
    lines = err_trace_csv(trace).splitlines()
    assert lines[0] == "j,err,s_fin_z"
    assert len(lines) == 7
    last = lines[-1].split(",")
    assert float(last[1]) == trace.err[-1]
    pinned = ErrTrace(PIN, PIN[::-1])
    assert err_trace_csv(pinned) == (
        "j,err,s_fin_z\n"
        "0,0.1,-0.0\n"
        "1,0.3333333333333333,0.3333333333333333\n"
        "2,-0.0,0.1\n"
    )


def test_search_csv():
    trace = run_afga_search(3, del_lam=math.pi / 2)
    lines = search_csv(trace).splitlines()
    assert lines[0] == "j,success"
    assert len(lines) == len(trace.success) + 1
    assert float(lines[1].split(",")[1]) == pytest.approx(0.125, abs=1e-15)
    pinned = SearchTrace(PIN, True, 1.0, 1.0)
    assert search_csv(pinned) == (
        "j,success\n0,0.1\n1,0.3333333333333333\n2,-0.0\n"
    )


def test_continuum_csv():
    trace = integrate_continuum(1.0, 1.0, 0.05)
    lines = continuum_csv(trace).splitlines()
    assert lines[0] == "t,g"
    assert len(lines) == len(trace.t) + 1
    assert float(lines[1].split(",")[1]) == 1.0
    pinned = ContinuumTrace(np.array([0.0, 1.0, 2.5]), PIN)
    assert continuum_csv(pinned) == (
        "t,g\n0.0,0.1\n1.0,0.3333333333333333\n2.5,-0.0\n"
    )


def _sci(v: float) -> str:
    """%.4e with -0.0 flushed to +0.0: the table's format applied one value at a time."""
    if v == 0.0:
        v = 0.0
    return f"{v:.4e}"


# +-0.0, subnormals and values near the float limits, as Python or numpy floats
_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e300)
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGES))
_VALUES = st.one_of(_FLOATS, _FLOATS.map(np.float64))
_ROWS = st.builds(
    ScheduleRow,
    st.integers(0, 10**6),
    _VALUES,
    _VALUES,
    _VALUES,
    st.tuples(_VALUES, _VALUES, _VALUES),
    st.tuples(_VALUES, _VALUES, _VALUES),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROWS, max_size=5))
def test_txt_row_format_equals_per_value_route(rows):
    params = AfgaParams(1.0, 1.0, len(rows))
    per_value = ["\t".join([str(row.j)] + [_sci(v) for v in _row_values(row)]) for row in rows]
    assert emit_afga_txt(rows, params).splitlines()[4:] == per_value


_ANGLES = st.one_of(st.floats(0.0, math.pi), st.sampled_from((-0.0, 5e-324)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ANGLES, _ANGLES.map(np.float64)), _ANGLES)
def test_txt_header_format_equals_per_value_route(gamma, del_lam):
    lines = emit_afga_txt([], AfgaParams(gamma, del_lam, 0)).splitlines()
    assert lines[0] == f"gamma(degs) = {_sci(math.degrees(gamma))}"
    assert lines[1] == f"del_lam(degs) = {_sci(math.degrees(del_lam))}"
