"""Benchmark of the ``psg`` CLI: real invocations, one child process at a
time (a closed loop with one client), every output checked.

Usage, from the root of a checkout:

    python3 psgbench/run.py --workload {ladder,mid-sweep,high-p} \\
        --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with no tracing: ``wall_s``, the
wall time of the workload's invocation list (each invocation's median over
the passes that fit in --seconds, at least one, summed); ``peak_rss_mb``, the
largest max-RSS of any child; ``setup_s``, the median over SETUP_SPAWNS
fresh interpreters of ``import psemigroups.cli`` plus ``build_parser()``.
Both times are scaled to a reference CPU speed by the host-speed probe
(probe.py), which shares the children's CPU: the benchmark pins itself to
one.  ``failed_frac`` is printed, and carried by ``attempted``/``failed``.

--trace 1 runs one pass under psgbench/tracer.py (spans), plus an untraced
pass over the light invocations (LIGHT_MAX_F) and a tracemalloc pass over
the first light one of each command, and reports the per-layer metrics of
layers.py.

The last stdout line is the JSON result.  Per-invocation descriptors
(a, k, p, F, genus), outcomes and, with --trace 1, every span go to
.psgbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
from checks import Outcome, failures
from oracle import instances
from probe import Probe, at_ref
from workloads import WORKLOADS, Invocation

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_SPAWNS = 15
KILL_GRACE_S = 5.0
# Invocations up to this F are the light ones.  Only they get the
# tracemalloc pass: it records every allocation, and above this F the
# count-table builds take minutes under it (their memory still shows in
# peak_rss_mb and denumerant.entries).  Only they get the untraced pass
# that trace.overhead_frac compares with, so that a --trace 1 run of
# ladder stays well inside 180 s.
LIGHT_MAX_F = 500_000
SETUP_CODE = "import psemigroups.cli as c; c.build_parser()"
# Wall time of one pass on a 2-core x86 VM (Python 3.11).  A run makes
# seconds // NOMINAL_PASS_S passes (at least one), a count fixed by the
# arguments so that every run takes the same number of samples.
NOMINAL_PASS_S = {"ladder": 50.0, "mid-sweep": 7.5, "high-p": 6.5}


class Runner:
    """Spawns children from the checkout root, one at a time."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root, self.work = root, work
        src = str(root / "src")
        self.env = {k: v for k, v in os.environ.items() if k != "PSEMIGROUPS_HORIZON_CAP"}
        self.env["PYTHONPATH"] = src + os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else src

    def spawn(self, argv: list[str], timeout: float) -> Outcome:
        """Run one child to completion under the host-speed probe; at its
        timeout send SIGTERM, and SIGKILL after a grace period.  The child
        is reaped with wait4 for its own max-RSS."""
        out, err = self.work / "stdout", self.work / "stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=self.root)
            expired = threading.Event()

            def signal_child(sig):
                if sig == signal.SIGTERM:
                    expired.set()
                with contextlib.suppress(ProcessLookupError):
                    os.kill(proc.pid, sig)

            timers = [
                threading.Timer(timeout, signal_child, (signal.SIGTERM,)),
                threading.Timer(timeout + KILL_GRACE_S, signal_child, (signal.SIGKILL,)),
            ]
            for t in timers:
                t.start()
            try:
                with Probe() as probe:
                    _, status, usage = os.wait4(proc.pid, 0)
                    wall = time.perf_counter() - start
            finally:
                for t in timers:
                    t.cancel()
                    t.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if expired.is_set() else proc.returncode
        return Outcome(code, wall, usage.ru_maxrss / 1024, out.read_bytes(), err.read_bytes(), probe.mean_s)

    def psg(self, inv: Invocation) -> Outcome:
        return self.spawn([sys.executable, "-m", "psemigroups", *inv.argv], inv.timeout)

    def traced(self, inv: Invocation, mode: str, trace_path: Path) -> tuple[Outcome, dict]:
        """Run under the tracer; a child killed before it wrote its whole
        trace contributes an empty one."""
        trace_path.unlink(missing_ok=True)
        tracer = str(HERE / "tracer.py")
        outcome = self.spawn([sys.executable, tracer, mode, str(trace_path), "--", *inv.argv], inv.timeout)
        try:
            return outcome, json.loads(trace_path.read_text())
        except (OSError, ValueError):
            return outcome, {"spans": [], "memory": [], "entries": 0, "pf_cache": None}

    def setup_s(self) -> float:
        walls = []
        for _ in range(SETUP_SPAWNS):
            outcome = self.spawn([sys.executable, "-c", SETUP_CODE], 60.0)
            if outcome.exit != 0:
                raise RuntimeError("setup spawn failed: " + outcome.stderr.decode(errors="replace"))
            walls.append(scaled_wall(outcome))
        return statistics.median(walls)


def scaled_wall(outcome: Outcome) -> float:
    """The child's wall time at the probe's reference speed.  A child
    killed at its timeout keeps its wall: the timer set it, not the CPU."""
    return outcome.wall_s if outcome.exit is None else at_ref(outcome.wall_s, outcome.probe_s)


def descriptor(inv: Invocation, oracle: dict) -> dict:
    top = oracle[inv.p_values[-1]]
    p = inv.p_values
    return {
        "a": top.a,
        "k": top.k,
        "p": p[0] if len(p) == 1 else f"{p[0]}..{p[-1]}",
        "F": top.frobenius,
        "genus": top.genus,
    }


def oracle_for(inv: Invocation) -> dict:
    """The benchmark's instance for every p of the invocation."""
    return {i.p: i for i in instances(inv.gens, list(inv.p_values))}


def load_reference(workload: str, seed: int) -> dict[str, str] | None:
    """The recorded digests that apply to this run, or None where none do."""
    if workload != "ladder" and seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {})


class Gate:
    """Counts attempted and failed invocations; ``correct`` turns false on
    any failure except an invocation's known defect in exactly its known
    form (workloads.KnownDefect).  Given a reference, every invocation
    without a known defect must have a digest in it."""

    def __init__(self, reference: dict[str, str] | None) -> None:
        self.reference = reference
        self.attempted = self.failed = 0
        self.correct = True
        self.log: list[dict] = []

    def check(self, pass_name: str, invs, oracles, outcomes: list[Outcome]) -> None:
        for inv, oracle, outcome in zip(invs, oracles, outcomes):
            recorded = self.reference.get(inv.label) if self.reference is not None else None
            problems = failures(inv, outcome, recorded, oracle)
            if self.reference is not None and recorded is None and inv.known_defect is None:
                problems.append("no reference digest recorded for this invocation")
            self.attempted += 1
            self.failed += bool(problems)
            excused = inv.known_defect is not None and inv.known_defect.matches(outcome)
            if problems and not excused:
                self.correct = False
            self.log.append(
                {
                    "pass": pass_name,
                    "invocation": inv.label,
                    "exit": outcome.exit,
                    "wall_s": outcome.wall_s,
                    "probe_s": outcome.probe_s,
                    "rss_mb": outcome.rss_mb,
                    "stdout_bytes": len(outcome.stdout),
                    "problems": problems,
                    "known_defect": inv.known_defect.reason if problems and excused else None,
                }
            )
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            if problems and excused:
                status += f" [known defect: {inv.known_defect.reason}]"
            print(
                f"  [{pass_name}] {inv.label}: exit {outcome.exit}, {outcome.wall_s:.3f} s"
                f" (probe {outcome.probe_s * 1e3:.2f} ms), {outcome.rss_mb:.1f} MB, {status}"
            )


def run_pass(invs, spawn) -> tuple[float, list]:
    """One closed-loop pass: each invocation starts when the last ended."""
    start = time.perf_counter()
    results = [spawn(i, inv) for i, inv in enumerate(invs)]
    return time.perf_counter() - start, results


def end_to_end(runner: Runner, invs, passes: int, oracles, gate: Gate) -> dict:
    """``wall_s`` sums each invocation's median scaled wall over the
    passes: the list's wall time at the probe's reference speed, robust to
    a burst of machine noise during one pass."""
    setup = runner.setup_s()
    done: list[list[Outcome]] = []
    for n in range(1, passes + 1):
        wall, outcomes = run_pass(invs, lambda i, inv: runner.psg(inv))
        done.append(outcomes)
        gate.check(f"pass {n}", invs, oracles, outcomes)
        scaled = sum(scaled_wall(o) for o in outcomes)
        print(f"pass {n}: {wall:.3f} s raw, {scaled:.3f} s at the reference speed")
    per_invocation = zip(*([scaled_wall(o) for o in p] for p in done))
    return {
        "wall_s": (sum(statistics.median(walls) for walls in per_invocation), "s"),
        "peak_rss_mb": (max(o.rss_mb for p in done for o in p), "MB"),
        "setup_s": (setup, "s"),
    }


def per_layer(runner: Runner, invs, oracles, gate: Gate, spans_path: Path) -> dict:
    """Traced pass over every invocation; an untraced pass over the light
    ones (F <= LIGHT_MAX_F), which ``trace.overhead_frac`` compares with,
    and a tracemalloc pass over the first light one of each command."""
    light = [i for i, inv in enumerate(invs) if oracles[i][inv.p_values[-1]].frobenius <= LIGHT_MAX_F]
    light_invs, light_oracles = [invs[i] for i in light], [oracles[i] for i in light]
    _, untraced = run_pass(light_invs, lambda i, inv: runner.psg(inv))
    gate.check("untraced", light_invs, light_oracles, untraced)

    def traced(mode):
        return lambda i, inv: runner.traced(inv, mode, runner.work / f"{mode}-{i}.json")

    _, results = run_pass(invs, traced("spans"))
    gate.check("traced", invs, oracles, [o for o, _ in results])
    traces = [t for _, t in results]
    with open(spans_path, "w") as fh:
        for i, trace in enumerate(traces):
            for name, start, end, parent, error in trace["spans"]:
                row = {"invocation": i, "name": name, "start": start, "end": end, "parent": parent, "error": error}
                fh.write(json.dumps(row) + "\n")
    metrics = layers.span_metrics(traces)
    metrics["cli.output_bytes"] = sum(len(o.stdout) for o, _ in results)
    base = sum(o.wall_s for o in untraced)
    metrics["trace.overhead_frac"] = sum(results[i][0].wall_s for i in light) / base - 1

    # Peaks are maxima, so a repeated command (high-p's draws) adds time
    # under tracemalloc but no coverage: one light invocation per command.
    firsts: dict[str, int] = {}
    for i in light:
        firsts.setdefault(invs[i].command, i)
    memory = sorted(firsts.values())
    memory_invs, memory_oracles = [invs[i] for i in memory], [oracles[i] for i in memory]
    _, results = run_pass(memory_invs, traced("memory"))
    gate.check("memory", memory_invs, memory_oracles, [o for o, _ in results])
    metrics.update(layers.peak_metrics([t for _, t in results]))
    metrics["trace.memory_skipped"] = len(invs) - len(memory)
    units = dict(layers.METRICS)
    return {name: (metrics.get(name, 0), units[name]) for name, _ in layers.METRICS}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "psemigroups" / "cli.py").is_file():
        print("error: run from the root of a psemigroups checkout (src/psemigroups not found)", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)
    # The probe must share the children's CPU; they inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = root / ".psgbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)

    invs = WORKLOADS[args.workload](args.seed)
    oracles = [oracle_for(inv) for inv in invs]
    descriptors = [descriptor(inv, o) for inv, o in zip(invs, oracles)]
    print(f"workload {args.workload}, seed {args.seed}, {len(invs)} invocations per pass")
    for inv, d in zip(invs, descriptors):
        print(f"  {inv.label}  [a={d['a']} k={d['k']} p={d['p']} F={d['F']} genus={d['genus']}]")
    gate = Gate(load_reference(args.workload, args.seed))
    if args.trace:
        metrics = per_layer(runner, invs, oracles, gate, work / "spans.jsonl")
    else:
        passes = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
        metrics = end_to_end(runner, invs, passes, oracles, gate)
    failed_frac = gate.failed / gate.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed_frac:.6g} ratio ({gate.failed} of {gate.attempted} invocations)")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "descriptors": [dict(d, invocation=inv.label) for inv, d in zip(invs, descriptors)],
        "outcomes": gate.log,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "failed_frac": failed_frac,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
