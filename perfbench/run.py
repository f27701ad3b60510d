"""Benchmark for invpat: times the library's public functions in-process.

    python3 perfbench/run.py --workload count|verify|memo --seed N --seconds S --trace 0|1

Run from the root of a checkout; invpat is imported from its src/ directory.
Each iteration imports invpat afresh, so every in-process @cache starts
empty (a CLI call pays for those caches every time), builds the workload's
inputs from the seed, and times the workload's calls.  Iterations repeat
until the next one would overrun --seconds.

--trace 0 reports the end-to-end metrics: wall_ref_s, cpu_ref_s, setup_s
and peak_rss_mib, and prints the unscaled wall_s and cpu_s beside them.
--trace 1 alternates untraced and traced iterations and
reports the per-layer metrics of the traced ones, plus trace.overhead_s,
the traced minus the untraced median wall time.  Every result is checked
against an oracle; failed operations are listed by name and make the run
exit 1.  The last line of output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import EXACT, PER_LAYER, Tracer
from workloads import Count, Memo, Verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
LAYERS = ("perms", "avoidance", "boards", "reduction", "slide", "tableaux", "classify", "checks")
# One set-up is tens of milliseconds, so each iteration sets up this many
# times and setup_s is the median over all of them.
SETUP_REPEATS = 5
MAX_LISTED_FAILURES = 20

# The shared host this benchmark was tuned on runs pure Python up to 40 %
# slower for minutes at a time, in CPU time as much as in wall time, so
# unscaled times of one commit spread by up to 15 % between runs.  The clock
# therefore splits the timed calls into segments of at least MIN_SEGMENT_S
# at the workload's ticks and, outside the timing, runs a fixed probe after
# each segment; each segment is rescaled by REFERENCE_S over the mean probe
# time around it.  REFERENCE_S is the probe's median on that host (2 vCPU
# Intel Xeon, Python 3.11), so the scaled times read as seconds at its
# median speed.
REFERENCE_S = 0.020
MIN_SEGMENT_S = 1.0
# Probing takes this share of each segment's length, at least one probe
# unit.  Pool workers, where a workload has them, keep running while the
# clock is paused for a probe, so the share also bounds the time a
# parallel change could hide there.
PROBE_SHARE = 0.05
_PROBE_DATA = tuple((i * 7919) % 10007 for i in range(4000))
_PROBE_WORDS = tuple(tuple(random.Random(s).sample(range(1, 10), 9)) for s in range(480))

END_TO_END = (
    ("wall_ref_s", "s", "median wall time of the timed calls, caches cold, at reference host speed"),
    ("cpu_ref_s", "s", "median CPU time of the timed calls, children included, at reference host speed"),
    ("setup_s", "s", "median time to import invpat and build the inputs, at reference host speed"),
    ("peak_rss_mib", "MiB", "peak resident memory of the run: this process plus its largest child"),
)
UNSCALED = (
    ("wall_s", "s", "median wall time of the timed calls, as measured"),
    ("cpu_s", "s", "median CPU time of the timed calls, as measured"),
    ("setup_raw_s", "s", "median set-up time, as measured"),
)


def workloads(scratch: Path = SCRATCH) -> dict:
    return {w.name: w for w in (Count(), Verify(), Memo(str(scratch / "tmp")))}


def drop_invpat() -> None:
    """Forget every imported invpat module and empty its caches."""
    stale = [name for name in sys.modules if name == "invpat" or name.startswith("invpat.")]
    for name in stale:
        for value in list(vars(sys.modules[name]).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        del sys.modules[name]
    gc.collect()


def import_invpat() -> SimpleNamespace:
    """Import invpat from the checkout's src/ and return its layer modules.

    The import is fresh after drop_invpat, so module-level caches, and any a
    later version adds, start empty.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("invpat")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"invpat was imported from {package.__file__}, not from {SRC}")
    lib = SimpleNamespace(package=package)
    for layer in LAYERS:
        setattr(lib, layer, importlib.import_module(f"invpat.{layer}"))
    lib.modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "invpat"]
    return lib


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest child's.
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024


def _probe_unit() -> None:
    # dict updates, a keyed sort and a generator scan ...
    for _ in range(3):
        counts = {}
        for i, v in enumerate(_PROBE_DATA):
            counts[v] = counts.get(v, 0) + i
        ordered = sorted(_PROBE_DATA, key=lambda v: (v % 97, v))
        sum(1 for a, b in zip(ordered, ordered[1:]) if a < b)
    # ... and a backtracking search for 132 in the style of perms.contains
    for w in _PROBE_WORDS:
        chosen = [0, 0]

        def search(d: int, start: int) -> int:
            found = 0
            for pos in range(start, len(w)):
                v = w[pos]
                if d == 1 and v < chosen[0]:
                    continue
                if d == 2:
                    found += chosen[0] < v < chosen[1]
                    continue
                chosen[d] = v
                found += search(d + 1, pos + 1)
            return found

        search(0, 0)


def probe(units: int) -> float:
    """Mean seconds per unit of fixed pure-Python work of the kinds invpat's
    layers do; it calls no invpat code."""
    t0 = time.perf_counter()
    for _ in range(units):
        _probe_unit()
    return (time.perf_counter() - t0) / units


class Clock:
    """Times the workload's calls in segments and, when ``probing``, also
    rescales each segment to the reference host speed by the probes on
    either side of it.  Traced iterations do not probe, because a probe
    inside an open span would count in that span."""

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.wall = self.cpu = self.wall_ref = self.cpu_ref = 0.0
        self.probes: list[float] = []
        self._before = self._probe(1) if probing else 0.0
        self._t0, self._c0 = time.perf_counter(), cpu_seconds()

    def tick(self) -> None:
        if self.probing and time.perf_counter() - self._t0 >= MIN_SEGMENT_S:
            self.split()

    def split(self) -> None:
        wall, cpu = time.perf_counter() - self._t0, cpu_seconds() - self._c0
        self.wall += wall
        self.cpu += cpu
        if self.probing:
            after = self._probe(max(1, round(PROBE_SHARE * wall / REFERENCE_S)))
            scale = REFERENCE_S / ((self._before + after) / 2)
            self.wall_ref += wall * scale
            self.cpu_ref += cpu * scale
            self._before = after
        self._t0, self._c0 = time.perf_counter(), cpu_seconds()

    def _probe(self, units: int) -> float:
        seconds = probe(units)
        self.probes.append(seconds)
        return seconds


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg_start": os.getloadavg()[0],
    }


def iteration(workload, seed: int, traced: bool) -> dict:
    """Set up SETUP_REPEATS times from a fresh import, then time one run of
    the workload on the last set-up and check its results.  Each set-up is
    also rescaled by a probe unit run right after it."""
    setups = []
    for repeat in range(SETUP_REPEATS):
        lib = inputs = None
        drop_invpat()
        t0 = time.perf_counter()
        lib = import_invpat()
        inputs = workload.setup(lib, seed)
        seconds = time.perf_counter() - t0
        setups.append((seconds, seconds * REFERENCE_S / probe(1)))
        if repeat < SETUP_REPEATS - 1:
            workload.cleanup(inputs)
    try:
        tracer = Tracer(lib) if traced else None
        try:
            clock = Clock(probing=not traced)
            raw = workload.run(lib, inputs, clock.tick)
            clock.split()
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = workload.check(lib, inputs, raw)
    finally:
        workload.cleanup(inputs)
    return {"setups": setups, "clock": clock, "outcome": outcome, "tracer": tracer}


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations of one workload until the next would end after
    ``seconds``.

    With ``trace``, every second iteration runs under the tracer, and at
    least one iteration of each kind runs whatever ``seconds`` says.
    """
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        kind = traced if trace and len(plain) > len(traced) else plain
        kind.append(iteration(workload, seed, kind is traced))
        done = time.perf_counter()
        if trace and not traced:
            continue
        if done - start + (done - t0) > seconds:
            break
    runs = plain + traced
    clocks = [r["clock"] for r in plain]
    result = {
        "setups": [s for r in runs for s in r["setups"]],
        "clocks": clocks,
        "peak_rss_mib": peak_rss_mib(),
        "attempted": sum(r["outcome"].attempted for r in runs),
        "failures": [f for r in runs for f in r["outcome"].failures],
    }
    if trace:
        layers = [r["tracer"].metrics() for r in traced]
        per_layer = {
            name: statistics.median(sample[name] for sample in layers)
            for name, _, _ in PER_LAYER
            if name != "trace.overhead_s"
        }
        per_layer["trace.overhead_s"] = statistics.median(
            r["clock"].wall for r in traced
        ) - statistics.median(c.wall for c in clocks)
        result.update(
            traced_iterations=len(traced),
            per_layer=per_layer,
            exact_repeat=all(s[n] == layers[0][n] for s in layers for n in EXACT),
            trace_dump=traced[-1]["tracer"].dump(),
        )
    return result


def end_to_end(result: dict) -> dict[str, float]:
    """Every end-to-end metric, scaled and unscaled."""
    clocks = result["clocks"]
    return {
        "wall_ref_s": statistics.median(c.wall_ref for c in clocks),
        "cpu_ref_s": statistics.median(c.cpu_ref for c in clocks),
        "setup_s": statistics.median(ref for _, ref in result["setups"]),
        "peak_rss_mib": result["peak_rss_mib"],
        "wall_s": statistics.median(c.wall for c in clocks),
        "cpu_s": statistics.median(c.cpu for c in clocks),
        "setup_raw_s": statistics.median(raw for raw, _ in result["setups"]),
    }


def report(name: str, seed: int, seconds: float, trace: bool, result: dict, mach: dict) -> dict:
    """Print every metric by name, unit and sample count; return the JSON line."""
    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in mach.items()))
    iterations = len(result["clocks"])
    samples = {"setup_s": len(result["setups"]), "setup_raw_s": len(result["setups"]), "peak_rss_mib": 1}
    values = end_to_end(result)
    print("end-to-end (untraced iterations):")
    for metric, unit, what in END_TO_END + UNSCALED:
        n = samples.get(metric, iterations)
        print(f"  {metric:<14} {values[metric]:>12.4f} {unit:<4} n={n:<3} {what}")
    probes = [p for c in result["clocks"] for p in c.probes]
    print(
        f"  host speed: probe median {statistics.median(probes) * 1e3:.2f} ms over "
        f"{len(probes)} probes, reference {REFERENCE_S * 1e3:.2f} ms"
    )
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"  {'error_rate':<14} {failed / attempted:>12.4f} {'':<4} {failed} failed / {attempted} attempted")
    metrics = {m: {"value": values[m], "unit": u} for m, u, _ in END_TO_END}
    if trace:
        print(
            f"per-layer (from the traced run, median of {result['traced_iterations']} traced "
            f"iteration(s); calls inside pool worker processes are not visible and not counted):"
        )
        for metric, unit, _ in PER_LAYER:
            note = " (computed from the file size after each save)" if metric.endswith("bytes_written") else ""
            print(f"  {metric:<44} {result['per_layer'][metric]:>14.6g} {unit}{note}")
        repeat = "identical" if result["exact_repeat"] else "DIFFERENT"
        print(f"  exact counts across the {result['traced_iterations']} traced iteration(s): {repeat}")
        metrics = {m: {"value": result["per_layer"][m], "unit": u} for m, u, _ in PER_LAYER}
    for line in result["failures"][:MAX_LISTED_FAILURES]:
        print(f"FAILED {line}")
    if failed > MAX_LISTED_FAILURES:
        print(f"FAILED ... and {failed - MAX_LISTED_FAILURES} more")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return line


def main(argv=None) -> int:
    choices = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(choices))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invpat" / "__init__.py").is_file():
        print(f"perfbench: no invpat package under {SRC}", file=sys.stderr)
        return 2
    mach = machine()
    result = measure(choices[args.workload], args.seed, args.seconds, bool(args.trace))
    if args.trace:
        SCRATCH.mkdir(exist_ok=True)
        out = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"machine": mach, **result.pop("trace_dump")}))
        print(f"spans of the last traced iteration: {out.relative_to(ROOT)}")
    line = report(args.workload, args.seed, args.seconds, bool(args.trace), result, mach)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
