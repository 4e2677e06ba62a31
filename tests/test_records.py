"""The result records are read-only values: equal fields compare equal, and
the repr names the class and its fields."""

from fractions import Fraction

import numpy as np
import pytest

from afga.asymptotics import ContinuumTrace, SaturationReport
from afga.formats import AfgaTable
from afga.schedule import AfgaParams, ScheduleRow
from afga.search_sim import SearchState, SearchTrace

RECORDS = [
    (AfgaParams, dict(gamma=1.0, del_lam=0.5, num_steps=3)),
    (
        ScheduleRow,
        dict(j=0, gamma_j=1.0, dbar_gamma_j=0.1, alpha_j=0.2, r_j=(0.0, 0.0, 1.0),
             s_j=(0.0, 0.0, 1.0)),
    ),
    (
        SaturationReport,
        dict(j_sat=5, del_gamma_degs=Fraction(32), gamma_jsat_degs=Fraction(4),
             big_gamma_degs=Fraction(4)),
    ),
    (ContinuumTrace, dict(t=[0.0, 1.0], g=[1.0, 0.5])),
    (SearchState, dict(nb=2, amps=np.full(4, 0.5, dtype=complex), target_index=0)),
    (SearchTrace, dict(success=np.array([0.25, 1.0]), converged=True, gamma=1.0, del_lam=0.5)),
    (AfgaTable, dict(gamma_degs=10.0, del_lam_degs=20.0, num_steps=0, data=np.zeros((1, 9)))),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_a_read_only_value(cls, fields):
    record = cls(**fields)
    for name in fields:
        assert getattr(record, name) is fields[name]
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
    assert record == cls(**fields)
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    for name in fields:
        assert f"{name}=" in text


def test_afga_params_replace_checks_the_range():
    params = AfgaParams(1.0, 0.5, 3)
    assert params._replace(num_steps=4) == AfgaParams(1.0, 0.5, 4)
    with pytest.raises(ValueError, match="gamma must lie in"):
        params._replace(gamma=-1.0)
