"""Spans and counts at the boundaries between the benchmark and afga's modules.

A Tracer replaces module attributes with wrappers for the length of a
traced run.  The afga modules import each other with ``from .x import y``,
so a wrapper sits on the attribute of the module that does the lookup:
``afga.qubit_sim.iter_angles`` is what run_afga_qubit calls, not
``afga.schedule.iter_angles``.  Three kinds of wrapper:

* span:  one record per call (name, start, end, parent span, op, the time
  of its child spans and ticks, and a few numbers read off the call);
* tick:  for microsecond calls, a call count and a time total per phase,
  charged to the enclosing span so that span's self time excludes it;
* count: a call count per phase, nothing timed.

Wrappers record only inside an op span, so the oracle checks run between
ops untraced.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable

NAME, START, END, PARENT, OP, CHILD, META, PHASE = range(8)

Meta = Callable[[tuple, dict, Any], dict]


def _nb(args: tuple, kwargs: dict) -> int:
    return args[0] if args else kwargs["nb"]


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _steps(args, kwargs, result) -> dict:
    return {"steps": int(result)}


def _trace_steps(args, kwargs, result) -> dict:
    return {"steps": len(result) - 1}


# (module, attribute, kind, recorded name, meta).  The recorded name is
# "<layer>.<function>", with "@<caller>" where one function is patched at
# several importing modules.
PATCHES: list[tuple[str, str, str, str, Meta | None]] = [
    ("afga.schedule", "build_schedule", "span", "schedule.build_schedule", _rows),
    ("afga.asymptotics", "build_schedule", "span", "schedule.build_schedule", _rows),
    ("afga.schedule", "steps_to_tolerance", "span", "schedule.steps_to_tolerance", _steps),
    ("afga.search_sim", "steps_to_tolerance", "span", "schedule.steps_to_tolerance@search_sim", _steps),
    ("afga.schedule", "iter_angles", "gen", "schedule.iter_angles@schedule", None),
    ("afga.qubit_sim", "iter_angles", "gen", "schedule.iter_angles@qubit_sim", None),
    ("afga.search_sim", "iter_angles", "gen", "schedule.iter_angles@search_sim", None),
    ("afga.schedule", "rotate", "tick", "bloch.rotate@schedule", None),
    ("afga.schedule", "polar_unit_vec", "tick", "bloch.polar_unit_vec@schedule", None),
    ("afga.qubit_sim", "polar_unit_vec", "tick", "bloch.polar_unit_vec@qubit_sim", None),
    ("afga.qubit_sim", "ket_from_unit_vec", "tick", "bloch.ket_from_unit_vec@qubit_sim", None),
    ("afga.qubit_sim", "bloch_vec_of", "tick", "bloch.bloch_vec_of@qubit_sim", None),
    ("afga.qubit_sim", "paulion", "tick", "bloch.paulion@qubit_sim", None),
    ("afga.qubit_sim", "run_afga_qubit", "span", "qubit_sim.run_afga_qubit", _trace_steps),
    ("afga.qubit_sim", "run_grover_qubit", "span", "qubit_sim.run_grover_qubit", _trace_steps),
    (
        "afga.search_sim",
        "run_afga_search",
        "span",
        "search_sim.run_afga_search",
        lambda a, k, r: {"steps": r.steps, "nb": _nb(a, k)},
    ),
    ("afga.search_sim", "apply_target_phase", "tick", "search_sim.apply_target_phase", None),
    ("afga.search_sim", "apply_sprime_phase", "tick", "search_sim.apply_sprime_phase", None),
    (
        "afga.asymptotics",
        "integrate_continuum",
        "span",
        "asymptotics.integrate_continuum",
        lambda a, k, r: {"accepted": len(r.t) - 1},
    ),
    ("afga.asymptotics", "mu_of_g", "count", "asymptotics.mu_of_g", None),
    ("afga.asymptotics", "fit_tail_rate", "span", "asymptotics.fit_tail_rate", None),
    ("afga.asymptotics", "saturation_analysis", "span", "asymptotics.saturation_analysis", None),
    ("afga.asymptotics", "verify_saturation", "span", "asymptotics.verify_saturation", None),
    (
        "afga.formats",
        "emit_afga_txt",
        "span",
        "formats.emit_afga_txt",
        lambda a, k, r: {"rows": len(a[0]), "bytes": len(r)},
    ),
    ("afga.formats", "schedule_csv", "span", "formats.schedule_csv", lambda a, k, r: {"rows": len(a[0])}),
    ("afga.formats", "err_trace_csv", "span", "formats.err_trace_csv", lambda a, k, r: {"rows": len(a[0])}),
    ("workloads", "run_cli", "span", "cli.run", lambda a, k, r: {"cmd": a[0].name}),
]


class Tracer:
    """Patches PATCHES in place while installed; records spans, ticks and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ticks: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        self.counts: Counter = Counter()
        self.phase = "pass"
        self._saved: list[tuple[Any, str, Any]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        op = self.spans[parent][OP] if parent is not None else len(self.spans)
        self.spans.append([name, 0, 0, parent, op, 0, None, self.phase])
        self.stack.append(len(self.spans) - 1)
        self.spans[-1][START] = time.perf_counter_ns()
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        end = time.perf_counter_ns()
        span = self.spans[idx]
        span[END] = end
        self.stack.pop()
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD] += end - span[START]

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _charge(self, name: str, ns: int) -> None:
        agg = self.ticks[(self.phase, name)]
        agg[0] += 1
        agg[1] += ns
        self.spans[self.stack[-1]][CHILD] += ns

    def _wrap(self, orig: Callable, kind: str, name: str, meta: Meta | None) -> Callable:
        if kind == "span":

            def wrapper(*args, **kwargs):
                if not self.stack:
                    return orig(*args, **kwargs)
                idx = self.open(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self.close(idx)
                if meta is not None:
                    self.spans[idx][META] = meta(args, kwargs, result)
                return result

        elif kind == "tick":

            def wrapper(*args, **kwargs):
                if not self.stack:
                    return orig(*args, **kwargs)
                start = time.perf_counter_ns()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._charge(name, time.perf_counter_ns() - start)

        elif kind == "gen":

            def ticked(gen):
                while True:
                    start = time.perf_counter_ns()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._charge(name, time.perf_counter_ns() - start)
                    yield item

            def wrapper(*args, **kwargs):
                gen = orig(*args, **kwargs)
                return ticked(gen) if self.stack else gen

        elif kind == "count":

            def wrapper(*args, **kwargs):
                if self.stack:
                    self.counts[(self.phase, name)] += 1
                return orig(*args, **kwargs)

        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        return functools.wraps(orig)(wrapper)

    def install(self, counts: bool = False) -> None:
        """Wrap the PATCHES entries: the span and tick kinds, or with
        `counts` the count kind.  A count wrapper costs a fair share of the
        microsecond call it counts, so counts go on for the fixed round only."""
        for module_name, attr, kind, name, meta in PATCHES:
            if (kind == "count") != counts:
                continue
            module = importlib.import_module(module_name)
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, kind, name, meta))

    def remove(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def dump(self) -> dict:
        """Spans, ticks and counts as plain JSON-ready data."""
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "child_ns", "meta", "phase"],
            "spans": self.spans,
            "ticks": [[phase, name, n, ns] for (phase, name), (n, ns) in sorted(self.ticks.items())],
            "counts": [[phase, name, n] for (phase, name), n in sorted(self.counts.items())],
        }


def _ratio(num: float, den: float, what: str) -> float:
    if not den:
        raise ValueError(f"no work recorded for {what}")
    return num / den


def op_unaccounted_shares(tr: Tracer) -> list[float]:
    """Per op of the workload's own traced pass: wall time not inside any
    layer span or tick, as a share of the op.

    An op span's children are the layer calls made directly by the
    benchmark, so its own self time is the op's wall time minus the summed
    self times of every layer below it.
    """
    return [
        (s[END] - s[START] - s[CHILD]) / (s[END] - s[START])
        for s in tr.spans
        if s[PARENT] is None and s[PHASE] == "pass" and s[END] > s[START]
    ]


def _dur_us(group: list) -> float:
    return sum(s[END] - s[START] for s in group) / 1e3


def _self_us(group: list) -> float:
    return sum(s[END] - s[START] - s[CHILD] for s in group) / 1e3


def _meta_sum(group: list, key: str) -> int:
    return sum(s[META][key] for s in group)


class _View:
    """Queries over one tracer's records."""

    def __init__(self, tr: Tracer) -> None:
        self.tr = tr
        self.spans = tr.spans

    def pick(self, name: str, phase: str, where: Callable | None = None) -> list:
        return [
            s for s in self.spans
            if s[NAME] == name and s[PHASE] == phase and (where is None or where(s))
        ]

    def timed(self, name: str, where: Callable | None = None) -> list:
        """The workload's own traced ops when they reach `name`, else the round."""
        return self.pick(name, "pass", where) or self.pick(name, "round", where)

    def ticks(self, prefix: str, suffix: str, phase: str) -> tuple[int, float]:
        calls = ns = 0
        for (ph, name), (n, t) in self.tr.ticks.items():
            if ph == phase and name.startswith(prefix) and name.endswith(suffix):
                calls += n
                ns += t
        return calls, ns / 1e3

    def children(self, parents: list, name: str) -> list:
        ids = {id(s) for s in parents}
        return [
            s for s in self.spans
            if s[NAME] == name and s[PARENT] is not None and id(self.spans[s[PARENT]]) in ids
        ]

    def is_top(self, s: list) -> bool:
        """Called by the benchmark itself, not nested in another traced call."""
        return self.spans[s[PARENT]][PARENT] is None


SEARCH = "search_sim.run_afga_search"
PREDICT = "schedule.steps_to_tolerance@search_sim"


def layer_counts(tr: Tracer) -> dict[str, float]:
    """Work counts of the fixed round, which repeat exactly for a given seed."""
    v = _View(tr)
    m: dict[str, float] = {}
    m["schedule.tol_steps"] = _meta_sum(v.pick("schedule.steps_to_tolerance", "round"), "steps")
    rows = _meta_sum(v.pick("schedule.build_schedule", "round"), "rows")
    m["bloch.calls_per_row"] = _ratio(v.ticks("bloch.", "@schedule", "round")[0], rows, "build rows")
    qubit = v.pick("qubit_sim.run_afga_qubit", "round") + v.pick("qubit_sim.run_grover_qubit", "round")
    m["bloch.qubit_calls_per_step"] = _ratio(
        v.ticks("bloch.", "@qubit_sim", "round")[0], _meta_sum(qubit, "steps"), "qubit steps"
    )
    nb18 = v.pick(SEARCH, "round", lambda s: s[META]["nb"] == 18)
    m["search_sim.steps"] = _meta_sum(nb18, "steps")
    m["search_sim.predicted_steps"] = _meta_sum(v.children(nb18, PREDICT), "steps")
    accepted = _meta_sum(v.pick("asymptotics.integrate_continuum", "round"), "accepted")
    evals = tr.counts[("round", "asymptotics.mu_of_g")]
    m["asymptotics.accepted_steps"] = accepted
    m["asymptotics.rhs_evals_per_step"] = _ratio(evals, accepted, "continuum steps")
    # step doubling: an accepted step costs 1 slope check + 12 evaluations,
    # a rejected trial 12 more
    m["asymptotics.accept_ratio"] = accepted / (accepted + (evals - 13 * accepted) / 12)
    txt = v.pick("formats.emit_afga_txt", "round")
    m["formats.bytes_per_row"] = _ratio(_meta_sum(txt, "bytes"), _meta_sum(txt, "rows"), "txt rows")
    return m


def layer_times(tr: Tracer, copy_gbps_4mib: float, nb18_vector_bytes: int) -> dict[str, float]:
    """Per-layer times: from the workload's own traced ops where they reach
    the function, from the fixed round otherwise."""
    v = _View(tr)
    m: dict[str, float] = {}

    # schedule
    n, us = v.ticks("schedule.iter_angles", "", "pass")
    if not n:
        n, us = v.ticks("schedule.iter_angles", "", "round")
    m["schedule.angles_us_per_step"] = _ratio(us, n, "iter_angles")
    builds = v.timed("schedule.build_schedule")
    rows = _meta_sum(builds, "rows")
    m["schedule.build_us_per_row"] = _ratio(_dur_us(builds), rows, "build_schedule")
    m["schedule.build_self_us_per_row"] = _ratio(_self_us(builds), rows, "build_schedule")
    tols = v.timed("schedule.steps_to_tolerance") + v.timed(PREDICT)
    m["schedule.tol_us_per_step"] = _ratio(_dur_us(tols), _meta_sum(tols, "steps"), "steps_to_tolerance")

    # bloch, as called by build_schedule
    m["bloch.us_per_row"] = _ratio(v.ticks("bloch.", "@schedule", builds[0][PHASE])[1], rows, "build rows")

    # qubit_sim; self time leaves out the angle steps and the bloch calls
    afga = v.timed("qubit_sim.run_afga_qubit")
    grover = v.timed("qubit_sim.run_grover_qubit")
    afga_steps, grover_steps = _meta_sum(afga, "steps"), _meta_sum(grover, "steps")
    m["qubit_sim.afga_us_per_step"] = _ratio(_dur_us(afga), afga_steps, "run_afga_qubit")
    m["qubit_sim.grover_us_per_step"] = _ratio(_dur_us(grover), grover_steps, "run_grover_qubit")
    m["qubit_sim.self_us_per_step"] = _ratio(_self_us(afga + grover), afga_steps + grover_steps, "qubit runs")

    # search_sim: a step is the search loop without the up-front prediction
    def step_us(group: list) -> float:
        predict = _dur_us(v.children(group, PREDICT))
        return _ratio(_dur_us(group) - predict, _meta_sum(group, "steps"), "search steps")

    m["search_sim.step_us.nb18"] = step_us(v.timed(SEARCH, lambda s: s[META]["nb"] == 18))
    m["search_sim.step_us.small"] = step_us(v.timed(SEARCH, lambda s: s[META]["nb"] <= 12))
    predicts = v.timed(PREDICT)
    ops = [v.spans[op] for op in {s[OP] for s in predicts}]
    m["search_sim.predict_share"] = _ratio(_dur_us(predicts), _dur_us(ops), "ops with a search")
    # computed, not counted: apply_target_phase copies the vector (read +
    # write), apply_sprime_phase takes its mean (read) and adds (read + write)
    m["search_sim.bytes_per_step_computed"] = 5 * nb18_vector_bytes
    achieved_gbps = m["search_sim.bytes_per_step_computed"] / (m["search_sim.step_us.nb18"] * 1e3)
    m["search_sim.bw_fraction"] = achieved_gbps / copy_gbps_4mib
    m["search_sim.step_ms.nb22"] = step_us(v.pick(SEARCH, "round", lambda s: s[META]["nb"] == 22)) / 1e3

    # asymptotics
    flows = v.timed("asymptotics.integrate_continuum")
    m["asymptotics.us_per_accepted_step"] = _ratio(
        _dur_us(flows), _meta_sum(flows, "accepted"), "continuum steps"
    )
    fits = v.timed("asymptotics.fit_tail_rate")
    m["asymptotics.fit_ms"] = _ratio(_dur_us(fits) / 1e3, len(fits), "fit_tail_rate")
    sat = v.timed("asymptotics.saturation_analysis", v.is_top) + v.timed(
        "asymptotics.verify_saturation", v.is_top
    )
    m["asymptotics.saturation_ms"] = _ratio(_dur_us(sat) / 1e3, len({s[OP] for s in sat}), "saturation ops")

    # formats
    txt = v.timed("formats.emit_afga_txt")
    csv = v.timed("formats.schedule_csv") + v.timed("formats.err_trace_csv")
    m["formats.txt_us_per_row"] = _ratio(_dur_us(txt), _meta_sum(txt, "rows"), "emit_afga_txt")
    m["formats.csv_us_per_row"] = _ratio(_dur_us(csv), _meta_sum(csv, "rows"), "csv emitters")

    # cli: median wall time of each command, process start to reaped
    for cmd in sorted({s[META]["cmd"] for s in v.spans if s[NAME] == "cli.run"}):
        runs = v.timed("cli.run", lambda s: s[META]["cmd"] == cmd)
        m[f"cli.{cmd}_ms"] = statistics.median((s[END] - s[START]) / 1e6 for s in runs)
    return m
