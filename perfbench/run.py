"""End-to-end and per-layer benchmark of the ``nilcone`` command line.

    python3 perfbench/run.py --workload e6-warm --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Every measured command runs in a fresh interpreter, one at a time (a closed
loop with one client, ``--jobs`` at its default of 1), from the ``src``
tree of the checkout this file sits in.  ``--trace 0`` repeats the workload's command for
``--seconds`` seconds of measured time and reports medians of its
load-corrected CPU time and peak RSS, plus the load-corrected set-up time.
``--trace 1`` runs the command once untraced and once under ``tracer.py`` in
another fresh interpreter, and derives per-layer metrics from the recorded
spans.

Load correction: on a shared host, the speed of a CPU changes by up to 80%
within minutes with load the benchmark cannot see, which moves raw wall and
CPU times of identical commands by as much.  So while a measured command
runs, this process runs a fixed reference kernel on the same CPU for about a
fifth of the time, and the command's CPU time is divided by the reference's
CPU time per step over the same interval.  Both slow down together; the
quotient, scaled by a nominal step time, is reported in seconds (see
``Reference``).

Every run checks the command's stdout against a pinned sha256 (and, for
``g2-hilbert``, against a closed form computed here), checks that no cache
file escapes the private directories it is given, and counts any
mismatch, nonzero exit or timeout as a failed attempt.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The seed sets the children's ``PYTHONHASHSEED`` and, for
``--workload all``, the order in which the workloads run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

# The whole run must end within this many seconds; no new command starts
# when the last one's duration would overrun it.
RUN_LIMIT_S = 170.0
IMPORT_PROBES = 7

LIMITS = (
    "no OS page-cache dropping; the benchmark pins only itself and its "
    "children, to one CPU, so that they share it with the reference kernel",
    "the --jobs process pool is not measured: the machine has few shared cores",
    "raw wall and CPU times vary with load from outside the machine (on a "
    "shared 2-vCPU VM, by up to 80% for the same command within minutes); "
    "they are printed but the bounded metrics are load-corrected CPU times, "
    "which leave out time spent waiting for I/O",
)


# -- load correction -------------------------------------------------------

class Reference:
    """A fixed CPU kernel that measures how fast the CPU is right now.

    One step parses a JSON table of ROWS small integer rows and folds
    it into a dict keyed by tuples: the allocation-, hashing- and
    dict-heavy interpreter work that dominates nilcone's commands.  Run
    on the same CPU as a command, one step in every IDLE + 1 step times,
    it sees the same slowdowns from outside load as the command.
    ``child_cpu * STEP_S / (reference CPU per step)`` is then the command's
    CPU time on a machine where one step costs STEP_S.  On a shared 2-vCPU
    VM this cut the coefficient of variation of the E6 command from 10-12%
    (raw CPU time) to 3-4%; the pause between steps keeps the command's own
    wall time within about a quarter of what it is alone, and tracked as
    well as running steps back to back.
    """

    ROWS = 20000
    STEP_S = 0.030
    IDLE = 4

    def __init__(self):
        rng = random.Random(0)
        self.text = json.dumps([[rng.randrange(-9, 10) for _ in range(6)]
                                for _ in range(self.ROWS)])

    def step(self) -> int:
        table: dict[tuple, int] = {}
        for row in json.loads(self.text):
            key = tuple(row)
            table[key] = table.get(key, 0) + sum(row)
        return len(table)


def corrected(child_cpu: float, reference_cpu: float, steps: int) -> float:
    """Child CPU seconds at the nominal reference speed."""
    return child_cpu * Reference.STEP_S * steps / reference_cpu


# -- workloads -------------------------------------------------------------

def hilbert_closed_form(exponents, dim: int, max_degree: int) -> list[int]:
    """Coefficients of prod_i (1 - q^(e_i + 1)) / (1 - q)^dim up to max_degree.

    The nilpotent cone is a complete intersection cut out by the basic
    invariants, whose degrees are the exponents plus one, so this is its
    Hilbert series.
    """
    numerator = [1] + [0] * max_degree
    for e in exponents:
        d = e + 1
        for n in range(max_degree, d - 1, -1):
            numerator[n] -= numerator[n - d]
    denominator_inverse = [math.comb(n + dim - 1, dim - 1) for n in range(max_degree + 1)]
    return [
        sum(numerator[i] * denominator_inverse[n - i] for i in range(n + 1))
        for n in range(max_degree + 1)
    ]


def check_g2_hilbert(stdout: bytes, max_degree: int = 24) -> str | None:
    """The printed G2 nilcone Hilbert coefficients against the closed form."""
    text = stdout.decode(errors="replace").strip()
    _, _, tail = text.partition(": ")
    try:
        got = [int(c) for c in tail.split()]
    except ValueError:
        return f"unparseable Hilbert output {text[:80]!r}"
    want = hilbert_closed_form((1, 5), 14, max_degree)
    if got != want:
        bad = next((n for n, (g, w) in enumerate(zip(got, want)) if g != w),
                   min(len(got), len(want)))
        return f"Hilbert coefficients differ from the closed form from degree {bad}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    stdout_sha256: str
    warm_cache: bool = False
    oracle: Callable[[bytes], str | None] | None = None


# Two workloads between them reach every layer: e6-warm the Weyl group and
# its cache, the term walk and the partition cache; g2-hilbert the
# partition point queries, dominant_below and weyl_dim.  The cold E6 run
# (one 17 s command) and the F4 sweep-3 run are left out so that these two
# get longer runs within the time budget: on a noisy shared machine a
# 12-20 s run held one to three of those commands, and their spread over
# ten runs passed the largest bound allowed.  The partition DP the F4 run
# stresses is also most of g2-hilbert, and the cold E6 run is still timed
# and checked on every e6-warm run, as its cache fill (setup_s).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("e6-warm",
                 ("graded", "-f", "E", "-r", "6", "--variety", "subregular",
                  "--sweep", "1", "--check"),
                 "d92020681e82e52199eb12e50d28c212ac758f405a205931a2fbe9d441b42738",
                 warm_cache=True),
        Workload("g2-hilbert",
                 ("hilbert", "-f", "G", "-r", "2", "--variety", "nilcone",
                  "--max-degree", "24"),
                 "d9a9451d54f8f76e5f71a0c195b6781bc9308cdcef4250d122acfd33526a3755",
                 oracle=check_g2_hilbert),
    )
}


def check_output(workload: Workload, stdout: bytes) -> str | None:
    """None when stdout is the pinned output, otherwise why it is not."""
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != workload.stdout_sha256:
        return f"stdout sha256 {digest} != pinned {workload.stdout_sha256}"
    if workload.oracle is not None:
        return workload.oracle(stdout)
    return None


# -- metrics ---------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    spans are [name, start, end, parent index] with parent -1 at the top.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


SERIES = {"graded.GradedCalculator.series", "graded.GradedCalculator.nilcone_series",
          "graded.GradedCalculator.induced_series",
          "graded.GradedCalculator.subregular_series"}
KERNELS = {"graded.GradedCalculator.euler_mult", "graded.GradedCalculator.nilcone_mult",
           "graded.GradedCalculator.subregular_mult"}
CHECK = {"multiplicity.WeightMultiplicities.__init__",
         "multiplicity.WeightMultiplicities.at"}


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics, {name: value}, from one traced run."""
    spans = trace["spans"]
    selfs = self_times(spans)
    counters = trace["counters"]

    def busy(*names):
        return sum(end - start for name, start, end, _ in spans if name in names)

    def calls(*names):
        return sum(1 for span in spans if span[0] in names)

    def layer_self(layer):
        return sum(t for span, t in zip(spans, selfs) if span[0].startswith(layer + "."))

    return {
        "weyl.enumerate_s": busy("weyl.enumerate_group"),
        "weyl.group_order": counters.get("weyl.group_order", 0),
        "weyl.cache_hit": counters.get("weyl.cache_hit", 0),
        "graded.self_s": layer_self("graded"),
        "graded.series_calls": calls(*SERIES),
        "graded.kernel_calls": calls(*KERNELS),
        "partition.p_s": busy("partition.PartitionTable.p"),
        "partition.p_calls": calls("partition.PartitionTable.p"),
        "partition.height_cutoff": counters.get("partition.height_cutoff", 0),
        "partition.load_s": busy("partition.load_table"),
        "partition.save_s": busy("partition.PartitionTable.save"),
        "partition.records_loaded": counters.get("partition.records_loaded", 0),
        "partition.cache_bytes": counters.get("partition.cache_bytes", 0),
        "rootsys.build_s": busy("rootsys.build"),
        "rootsys.dominant_below_s": busy("rootsys.RootSystem.dominant_below"),
        "rootsys.dominant_below_calls": calls("rootsys.RootSystem.dominant_below"),
        "multiplicity.check_s": busy(*CHECK),
        "multiplicity.weyl_dim_s": busy("multiplicity.weyl_dim"),
        "multiplicity.weyl_dim_calls": calls("multiplicity.weyl_dim"),
        "cli.self_s": layer_self("cli"),
        "process.import_s": trace["import_s"],
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def rule_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has ten samples beyond it (n={n})"
    k = math.floor(100 * (1 - 10 / n))
    cut = statistics.quantiles(values, n=100, method="inclusive")[k - 1]
    return f"p{k}={cut:.4f}"


# -- running commands ------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    cpu_norm_s: float | None  # None unless measured beside the reference
    peak_rss_mb: float
    stdout: bytes
    error: str | None


class Runner:
    """Starts the children of one benchmark run inside a private directory."""

    def __init__(self, work: Path, seed: int, deadline: float, reference: Reference):
        self.work = work
        self.deadline = deadline
        self.reference = reference
        self.home = work / "home"
        self.cwd = work / "cwd"
        for d in (self.home, self.cwd):
            d.mkdir()
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("NILCONE_CACHE_DIR", "PYTHONDONTWRITEBYTECODE")}
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED=str(seed % 2**32),
            PYTHONPYCACHEPREFIX=str(work / "pycache"),
            # Anything aimed at ~/.cache/nilcone lands here and is caught.
            HOME=str(self.home),
        )
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, argv: list[str], calibrate: bool = False) -> Sample:
        """Run argv to completion, with rusage of exactly that child.

        With calibrate, run reference steps on this CPU until the child
        exits, and also give the child's CPU time load-corrected.
        """
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        timeout = max(1.0, self.remaining())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=self.cwd)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            steps, reference_cpu = 0, 0.0
            try:
                while True:
                    if calibrate:
                        step_start = time.process_time()
                        self.reference.step()
                        step_cpu = time.process_time() - step_start
                        steps += 1
                        reference_cpu += step_cpu
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG if calibrate else 0)
                    if pid:
                        break
                    time.sleep(step_cpu * Reference.IDLE)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        error = None
        if killed.is_set():
            error = f"timed out after {timeout:.0f} s"
        elif proc.returncode != 0:
            tail = err_path.read_bytes()[-400:].decode(errors="replace")
            error = f"exit {proc.returncode}: {tail.strip()}"
        cpu = usage.ru_utime + usage.ru_stime
        return Sample(wall, cpu, corrected(cpu, reference_cpu, steps) if calibrate else None,
                      usage.ru_maxrss / 1024, out_path.read_bytes(), error)

    def leftovers(self) -> str | None:
        """Files a command left in its working directory or home."""
        stray = [p for d in (self.home, self.cwd) for p in d.rglob("*")]
        if stray:
            for p in stray:
                if p.is_dir() and not p.is_symlink():
                    shutil.rmtree(p, ignore_errors=True)
                else:
                    p.unlink(missing_ok=True)
            return "left files behind: " + ", ".join(sorted(p.name for p in stray)[:5])
        return None

    def nilcone(self, workload: Workload, extra=(), tracer_args=None,
                calibrate: bool = False) -> Sample:
        """One checked invocation of the workload's command."""
        args = [*workload.args, *extra]
        if tracer_args is None:
            argv = [sys.executable, "-m", "nilcone.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), *tracer_args, "--", *args]
        sample = self.spawn(argv, calibrate)
        stray = self.leftovers()
        sample.error = sample.error or check_output(workload, sample.stdout) or stray
        self.attempted += 1
        if sample.error:
            self.failed += 1
            print(f"{workload.name}: FAILED: {sample.error}", file=sys.stderr)
        return sample

    def import_probe(self) -> Sample:
        sample = self.spawn([sys.executable, "-c", "import nilcone.cli"], calibrate=True)
        if sample.error:
            raise SetupError(f"cannot import nilcone.cli from {ROOT / 'src'}: {sample.error}")
        return sample

    def fill_cache(self, workload: Workload, calibrate: bool) -> tuple[Path, Sample]:
        """A cold run that writes a private cache directory."""
        cache = self.work / "cache"
        sample = self.nilcone(workload, extra=("--cache-dir", str(cache)), calibrate=calibrate)
        if not sample.error and not any(cache.iterdir()):
            sample.error = "cache fill wrote no cache file"
            self.failed += 1
            print(f"{workload.name}: FAILED: {sample.error}", file=sys.stderr)
        return cache, sample


class SetupError(Exception):
    """The checkout cannot run the benchmark at all; no result is printed."""


def setup(runner: Runner, workload: Workload, calibrate: bool) -> tuple[list[Sample], Path | None]:
    """Fill a cache dir for a warm workload, else warm the byte-code cache.

    Returns the set-up commands and the cache dir to use.  A warm
    workload's set-up is its one cache fill: a fill is a whole cold run,
    too long to repeat within the time budget of a run.  Otherwise it is
    IMPORT_PROBES imports of the CLI.
    """
    if workload.warm_cache:
        cache, fill = runner.fill_cache(workload, calibrate)
        return [fill], cache
    return [runner.import_probe() for _ in range(IMPORT_PROBES)], None


def describe(label: str, values: list[float]) -> str:
    return (f"{label} median {statistics.median(values):.4f} s, "
            f"{rule_percentile(values)}")


def measure(runner: Runner, workload: Workload, seconds: float) -> dict:
    """End-to-end metrics over at least `seconds` of measured commands."""
    setups, cache = setup(runner, workload, calibrate=True)
    extra = ("--cache-dir", str(cache)) if cache else ()
    samples: list[Sample] = []
    while not samples or sum(s.wall_s for s in samples) < seconds:
        if samples and samples[-1].wall_s > runner.remaining():
            break
        samples.append(runner.nilcone(workload, extra, calibrate=True))
    good = [s for s in samples if not s.error] or samples
    print(f"{workload.name}: {len(samples)} measured runs, "
          f"fail_frac {runner.failed}/{runner.attempted}; "
          + "; ".join(describe(label, [getattr(s, label) for s in good])
                      for label in ("cpu_norm_s", "cpu_s", "wall_s"))
          + "; wall and cpu are raw, beside the reference kernel")
    print(f"{workload.name}: set-up {len(setups)} command(s), "
          + "; ".join(describe(label, [getattr(s, label) for s in setups])
                      for label in ("cpu_norm_s", "wall_s")))
    return {
        "cpu_norm_s": statistics.median(s.cpu_norm_s for s in good),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in good),
        "setup_s": statistics.median(s.cpu_norm_s for s in setups),
    }


def trace(runner: Runner, workload: Workload, rng: random.Random, run_id: str) -> dict:
    """Per-layer metrics from one traced run next to one untraced run."""
    _, cache = setup(runner, workload, calibrate=False)
    extra = ("--cache-dir", str(cache)) if cache else ()
    spans_path = runner.work / "spans.json"
    walls = {}
    for mode in rng.sample(["untraced", "traced"], 2):
        tracer_args = [str(spans_path), run_id] if mode == "traced" else None
        walls[mode] = runner.nilcone(workload, extra, tracer_args).wall_s
    if not spans_path.exists():  # the traced command failed before writing
        return layer_metrics({"spans": [], "counters": {}, "import_s": 0.0}, 0.0, 0.0)
    spans = json.loads(spans_path.read_text())
    if spans["missing"]:
        print(f"{workload.name}: tracer found no {', '.join(spans['missing'])}",
              file=sys.stderr)
    return layer_metrics(spans, walls["traced"], walls["untraced"])


# -- run record and entry point --------------------------------------------

def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def declared() -> dict:
    """BENCHMARK.json at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(trace_mode: int) -> dict[str, str]:
    key = "per_layer" if trace_mode else "end_to_end"
    return {m["name"]: m["unit"] for m in declared()[key]}


def run_workload(work: Path, workload: Workload, args, rng, deadline,
                 reference: Reference) -> tuple[dict, Runner]:
    runner = Runner(Path(tempfile.mkdtemp(prefix=workload.name + "-", dir=work)),
                    args.seed, deadline, reference)
    if args.trace:
        values = trace(runner, workload, rng, f"{workload.name}-seed{args.seed}")
    else:
        values = measure(runner, workload, args.seconds)
    return values, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nilcone" / "cli.py").is_file():
        print(f"no nilcone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    # One CPU for this process, its children and the reference kernel.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reference = Reference()
    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    why = {w["name"]: w["why"] for w in declared()["workloads"]}
    record = {
        "workloads": names, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
        "commit": commit(), "why": {n: why.get(n) for n in names},
        "load": "closed loop, one client, one command at a time, default --jobs 1, "
                "on one CPU shared with the reference kernel",
        "limits": LIMITS,
    }
    print("run record: " + json.dumps(record))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    results, attempted, failed = {}, 0, 0
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S if len(names) > 1 else start + RUN_LIMIT_S
            values, runner = run_workload(work, WORKLOADS[name], args, rng, deadline,
                                          reference)
            results[name] = values
            attempted += runner.attempted
            failed += runner.failed
    except SetupError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    unit = units(args.trace)
    metrics = {}
    for name, values in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": unit[metric]}
            print(f"{prefix}{metric} = {value} {unit[metric]}")
    print(f"fail_frac = {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
