"""Text emitters and parsers for schedules and simulation traces.

The schedule table format is three `name = value` header lines, one
tab-separated label line, and num_steps + 1 tab-separated data rows; all
angles are in degrees and every float is printed as %.4e with negative
zero normalized to 0.0000e+00.  The CSV emitters keep full precision via
repr and exist for downstream plotting.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .schedule import AfgaParams, ScheduleRow

if TYPE_CHECKING:
    import numpy as np

    from .asymptotics import ContinuumTrace
    from .qubit_sim import ErrTrace
    from .search_sim import SearchTrace

__all__ = [
    "AFGA_COLUMNS",
    "AfgaTable",
    "emit_afga_txt",
    "parse_afga_txt",
    "schedule_csv",
    "err_trace_csv",
    "search_csv",
    "continuum_csv",
]

AFGA_COLUMNS = (
    "j",
    "gam_j(degs)",
    "alp_j(degs)",
    "vr_x",
    "vr_y",
    "vr_z",
    "vs_x",
    "vs_y",
    "vs_z",
)
_TXT_ROW = "%d" + "\t%.4e" * (len(AFGA_COLUMNS) - 1)


def _row_values(row: ScheduleRow) -> list[float]:
    """Float fields of a schedule row after j: angles in degrees, then r_j and s_j."""
    return [math.degrees(row.gamma_j), math.degrees(row.alpha_j), *row.r_j, *row.s_j]


def _floats(values) -> str:
    """Comma-joined floats at full precision; numpy floats print as plain floats."""
    return ",".join(map(repr, map(float, values)))


def _csv(header: str, lines) -> str:
    """Header line plus the given lines, each ended by a newline."""
    return "\n".join([header, *lines]) + "\n"


def emit_afga_txt(rows: list[ScheduleRow], params: AfgaParams) -> str:
    """Render a schedule as the tab-separated fixed-format table."""
    # v + 0.0 flushes -0.0 to +0.0, so emitted tables are sign-stable
    lines = [
        "gamma(degs) = %.4e" % (math.degrees(params.gamma) + 0.0),
        "del_lam(degs) = %.4e" % (math.degrees(params.del_lam) + 0.0),
        f"num_steps = {params.num_steps}",
        "\t".join(AFGA_COLUMNS),
    ]
    lines.extend(_TXT_ROW % (row.j, *[v + 0.0 for v in _row_values(row)]) for row in rows)
    return "\n".join(lines) + "\n"


class AfgaTable(NamedTuple):
    """Parsed form of the fixed-format table; data has one row per step."""

    gamma_degs: float
    del_lam_degs: float
    num_steps: int
    data: np.ndarray


def parse_afga_txt(text: str) -> AfgaTable:
    """Parse a fixed-format table back into header values and a float array."""
    import numpy as np
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 4:
        raise ValueError("truncated table: need 3 header lines and a label line")
    for ln in lines[:3]:
        if "=" not in ln:
            raise ValueError(f"header line without '=': {ln!r}")
    gamma_degs = float(lines[0].split("=", 1)[1])
    del_lam_degs = float(lines[1].split("=", 1)[1])
    num_steps = int(lines[2].split("=", 1)[1])
    data = np.array([[float(tok) for tok in ln.split()] for ln in lines[4:]])
    if data.shape != (num_steps + 1, len(AFGA_COLUMNS)):
        raise ValueError(
            f"expected {num_steps + 1} rows of {len(AFGA_COLUMNS)} fields, "
            f"got shape {data.shape}"
        )
    return AfgaTable(gamma_degs, del_lam_degs, num_steps, data)


def schedule_csv(rows: list[ScheduleRow]) -> str:
    """Full-precision CSV of a schedule, angles in degrees."""
    return _csv(
        "j,gam_j_degs,alp_j_degs,vr_x,vr_y,vr_z,vs_x,vs_y,vs_z",
        (f"{row.j},{_floats(_row_values(row))}" for row in rows),
    )


def err_trace_csv(trace: ErrTrace) -> str:
    """CSV of miss probability and z-component per step."""
    pairs = zip(trace.err, trace.s_fin_z)
    return _csv("j,err,s_fin_z", (f"{j},{_floats(ez)}" for j, ez in enumerate(pairs)))


def search_csv(trace: SearchTrace) -> str:
    """CSV of success probability per step."""
    return _csv("j,success", (f"{j},{float(s)!r}" for j, s in enumerate(trace.success)))


def continuum_csv(trace: ContinuumTrace) -> str:
    """CSV of the accepted integration samples."""
    return _csv("t,g", map(_floats, zip(trace.t, trace.g)))
