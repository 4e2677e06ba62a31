"""afga benchmark: four seeded, closed-loop, single-client workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 4

--trace 0 runs the workload untraced for --seconds of op time and reports
the end-to-end metrics listed in BENCHMARK.json.  --trace 1 runs it once
untraced and once traced (half the time each), then a fixed seeded round
that touches every layer, and reports the per-layer metrics; its spans go
to perfbench/out/.  --workload all runs every workload both ways and
prints one table.  The last line of stdout is one JSON object.

Run from a checkout: the program is imported from its src/ directory.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# before numpy loads; child processes inherit the pin
os.environ.update(dict.fromkeys(BLAS_VARS, "1"))
if not (SRC / "afga" / "__init__.py").is_file():
    sys.exit(f"error: no afga source under {SRC}; run from a checkout of the repository")
sys.path[:0] = [str(SRC), str(HERE)]

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import afga  # noqa: E402
import numpy as np  # noqa: E402

if Path(afga.__file__).resolve().parent != SRC / "afga":
    sys.exit(f"error: imported afga from {afga.__file__}, not from {SRC}")

import machine  # noqa: E402
import oracles  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

# printed after the bounded metrics; see READING.md
EXTRA_UNITS = {
    "op_p90_ms": "ref-ms",
    "raw.op_p50_ms": "ms",
    "raw.op_p90_ms": "ms",
    "raw.ops_per_s": "1/s",
    "raw.setup_s": "s",
    "machine.speed_ratio": "ratio",
}
SETUP_PROBES = 5
FLOOR_REPEATS = 5
MAX_PROBLEMS_SHOWN = 5
PROBE_HALF_WINDOW = 5


@dataclass
class Pass:
    """Outcome of a run of ops: wall time of each, and how many failed."""

    durations: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    child_peak_mib: float = 0.0
    probes: list[float] = field(default_factory=list)  # speed-probe time after each op

    def add(self, other: Pass) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_ops(
    wl: W.Workload,
    inputs: list,
    seconds: float | None = None,
    count: int | None = None,
    tr: T.Tracer | None = None,
) -> Pass:
    """Closed loop: the next op starts when the previous one and its check end.

    Stops after `count` ops, or once the ops' summed wall time reaches
    `seconds` (at the end of a pass over the inputs for whole-cycle
    workloads).  Checks run outside the timed region and outside any span.
    """
    out = Pass()
    busy = 0.0
    while True:
        i = out.attempted
        if count is not None and i >= count:
            break
        if seconds is not None and busy >= seconds and not (wl.whole_cycles and i % len(inputs)):
            break
        x = inputs[i % len(inputs)]
        out.attempted += 1
        res = error = None
        start = time.perf_counter()
        try:
            if tr is None:
                res = wl.op(x)
            else:
                with tr.span("op"):
                    res = wl.op(x)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            error = f"op raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        out.durations.append(elapsed)
        busy += elapsed
        if wl.speed is not None:
            out.probes.append(wl.speed.sample())
        if error is None:
            # the cli op's result carries the child's peak RSS from wait4
            out.child_peak_mib = max(out.child_peak_mib, getattr(res, "maxrss_mib", 0.0))
            try:
                found = wl.check(x, res)
            except Exception as exc:
                found = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            found = [error]
        if found:
            out.failed += 1
            out.problems += found[:2]
    return out


def scaled(result: Pass, speed: machine.SpeedProbe | None) -> list[float]:
    """Op times as on a machine that runs the speed probe in its nominal time.

    Each op is scaled by the median probe time of the ops around it, which
    follows drifts of a few seconds and shrugs off a single slow probe.
    """
    if speed is None:
        return result.durations
    k = PROBE_HALF_WINDOW
    probes = result.probes
    return [
        d * speed.nominal_s / statistics.median(probes[max(0, i - k) : i + k + 1])
        for i, d in enumerate(result.durations)
    ]


def quantile_ms(durations: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, in ms.

    A weighted mean of all order statistics, with beta-distribution weights
    centred on rank p * n.  A run of the big search or of the CLI holds 15
    to 60 ops, where one order statistic jumps with every op that lands on
    either side of it; the weighted mean does not.
    """
    # imported here, not at the top: the set-up probes run this file, and
    # scipy would add a fifth to the set-up time they measure
    from scipy.special import betainc

    x = np.sort(durations)
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x) * 1e3


def p50_ms(durations: list[float]) -> float:
    return quantile_ms(durations, 0.5)


def p90_ms(durations: list[float]) -> float:
    return quantile_ms(durations, 0.9)


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh interpreter to ready: start-up, import afga, inputs and warm-up.

    Returns the raw times and the times scaled like the ops: each by a
    `python -c "import numpy"` started the same way right after it.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    raw, scaled_times = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=W.child_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=W.CHILD_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode} before it was ready")
        start = time.perf_counter()
        subprocess.run(W.NUMPY_START.argv, env=W.child_env(), cwd=ROOT, check=True, timeout=W.CHILD_TIMEOUT_S)
        probe = time.perf_counter() - start
        raw.append(elapsed)
        scaled_times.append(elapsed * W.NUMPY_START_NOMINAL_S / probe)
    return raw, scaled_times


def untraced(workload: str, seed: int, seconds: float) -> tuple[Pass, dict[str, float]]:
    wl = W.WORKLOADS[workload]
    inputs = wl.inputs(seed)
    wl.warmup()
    raw_setups, setups = setup_seconds(workload, seed)
    result = run_ops(wl, inputs, seconds=seconds)
    d = scaled(result, wl.speed)
    self_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_p50_ms": p50_ms(d),
        "ops_per_s": len(d) / sum(d),
        "peak_mib": result.child_peak_mib if workload == "cli" else self_peak,
        "setup_s": statistics.median(setups),
        # printed, not bounded: below 100 ops fewer than ten lie beyond p90
        "op_p90_ms": p90_ms(d),
        # unscaled, for the record
        "raw.op_p50_ms": p50_ms(result.durations),
        "raw.op_p90_ms": p90_ms(result.durations),
        "raw.ops_per_s": len(d) / sum(result.durations),
        "raw.setup_s": statistics.median(raw_setups),
        "machine.speed_ratio": statistics.median(result.probes) / wl.speed.nominal_s,
    }
    return result, metrics


def traced_round(tr: T.Tracer, seed: int) -> Pass:
    """A fixed set of seeded ops that reaches every layer, so that every
    traced run reports every layer metric and its counts repeat exactly."""
    total = Pass()
    tr.phase = "round"
    tr.install(counts=True)
    for wl in W.WORKLOADS.values():
        inputs = wl.inputs(seed)
        total.add(run_ops(wl, inputs, count=wl.round_ops, tr=tr))

    def exited_0(cmd, res) -> list[str]:
        return [] if res.returncode == 0 else [f"{cmd.name} exited {res.returncode}"]

    floors = W.Workload(inputs=None, op=W.cli_op, check=exited_0, warmup=None)
    for cmd in (W.PYTHON_START, W.IMPORT_AFGA):
        total.add(run_ops(floors, [cmd], count=FLOOR_REPEATS, tr=tr))

    def nb22_check(_, trace) -> list[str]:
        want = oracles.search_success(W.PROBE_NB, trace.del_lam, W.PROBE_STEPS)
        return oracles.close_problems(trace.success, want, "nb22 success trace")

    nb22 = W.Workload(inputs=None, op=W.probe_nb22, check=nb22_check, warmup=None)
    total.add(run_ops(nb22, [seed], count=1, tr=tr))
    return total


def traced(workload: str, seed: int, seconds: float) -> tuple[Pass, dict[str, float]]:
    wl = W.WORKLOADS[workload]
    inputs = wl.inputs(seed)
    wl.warmup()
    plain = run_ops(wl, inputs, seconds=seconds / 2)
    tr = T.Tracer()
    tr.install()
    try:
        with_spans = run_ops(wl, inputs, seconds=seconds / 2, tr=tr)
        round_pass = traced_round(tr, seed)
    finally:
        tr.remove()
    gbps_4 = machine.copy_gbps(4 * machine.MIB, 50)
    gbps_64 = machine.copy_gbps(64 * machine.MIB, 10)
    metrics = T.layer_counts(tr) | T.layer_times(tr, gbps_4, 2**W.SEARCH_NB * 16)
    metrics["machine.copy_gbps.4mib"] = gbps_4
    metrics["machine.copy_gbps.64mib"] = gbps_64
    base = p50_ms(scaled(plain, wl.speed))
    overhead = p50_ms(scaled(with_spans, wl.speed)) - base
    shares = T.op_unaccounted_shares(tr)
    metrics["trace.overhead_ms"] = overhead
    metrics["trace.overhead_share"] = overhead / base
    metrics["trace.unaccounted_share"] = statistics.median(shares)
    metrics["machine.speed_ratio"] = statistics.median(plain.probes) / wl.speed.nominal_s

    W.OUT.mkdir(parents=True, exist_ok=True)
    dump = tr.dump()
    dump["op_unaccounted_share"] = shares
    dump["metrics"] = metrics
    dump["provenance"] = machine.provenance(ROOT, BLAS_VARS)
    (W.OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(dump))

    result = Pass()
    for part in (plain, with_spans, round_pass):
        result.add(part)
    return result, metrics


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(result: Pass, metrics: dict[str, float], trace: int) -> dict:
    declared = declared_metrics(trace)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced, one child process per run; prints
    one table of every figure the runs print, and writes it to OUT."""
    table: dict[str, dict[str, tuple[float, str]]] = {}
    results = {}
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            results[f"{workload}/trace{trace}"] = json.loads(lines[-1])
            for line in lines[:-1]:
                name, eq, rest = line.partition(" = ")
                if eq and not name.startswith("#"):
                    value, _, unit = rest.partition(" ")
                    # the untraced run's fail_ratio, ops and speed_ratio come first and stay
                    table.setdefault(name, {}).setdefault(workload, (float(value), unit))
    print(f"{'figure':36s}" + "".join(f"{w:>12s}" for w in W.WORKLOADS) + "  unit")
    for name, cells in table.items():
        unit = next(iter(cells.values()))[1]
        row = "".join(f"{cells[w][0]:12.5g}" if w in cells else f"{'':12s}" for w in W.WORKLOADS)
        print(f"{name:36s}{row}  {unit}")
    W.OUT.mkdir(parents=True, exist_ok=True)
    combined = {"seed": seed, "seconds": seconds, "provenance": machine.provenance(ROOT, BLAS_VARS),
                "runs": results}
    (W.OUT / f"bench-seed{seed}.json").write_text(json.dumps(combined, indent=1))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {run: r["metrics"] for run, r in results.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        wl = W.WORKLOADS[args.workload]
        wl.inputs(args.seed)
        try:
            wl.warmup()
        finally:
            W.close_launcher()
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0

    cpu = machine.pin_to_one_cpu()
    run = traced if args.trace else untraced
    try:
        result, metrics = run(args.workload, args.seed, args.seconds)
    finally:
        W.close_launcher()
    out = report(result, metrics, args.trace)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} cpu={cpu}")
    print(f"# machine {json.dumps(machine.provenance(ROOT, BLAS_VARS))}")
    for problem in result.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"# FAILED {problem}", file=sys.stderr)
    print(f"fail_ratio = {result.failed / result.attempted:.6g} ratio")
    print(f"ops = {result.attempted} count")
    units = {name: entry["unit"] for name, entry in out["metrics"].items()} | EXTRA_UNITS
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
