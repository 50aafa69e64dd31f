"""The four workloads and the child runs that measure them.

Each workload runs the real entry point in fresh child processes (see
:mod:`benchmarks.e2e.host`); the program sees only its normal CLI
arguments, with a program seed drawn from the workload seed as
``--seed``. :func:`measure` repeats timed iterations for the requested
number of seconds (at least :attr:`Workload.min_iterations`), takes set-up probes before and after
them until there are :data:`SETUP_SAMPLES` set-up samples, optionally
makes one traced run, and checks every output it saw.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchmarks.e2e import layers
from benchmarks.e2e.loadgen import build_schedule, run_pass
from benchmarks.e2e.memsampler import sample_peak_kb

__all__ = ["ROOT", "WORKLOADS", "Measurement", "Workload", "measure"]

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

#: Golden digests by preset, taken at program seed :data:`GOLDEN_SEED`.
GOLDENS = {
    "small": ROOT / "tests" / "goldens" / "small_preset.json",
    "paper": HERE / "expected_seed2018.json",
}
SERVE_GOLDEN = ROOT / "tests" / "goldens" / "serve_small.json"
#: Benchmark seed at which an untimed child also checks the goldens.
GOLDEN_SEED = 2018

#: Set-up time is the median of this many child spawns per run, half
#: taken before the timed iterations and half after, so a slow spell of
#: the machine during the run moves few of them.
SETUP_SAMPLES = 10
SPAWN_TIMEOUT_S = 150.0
#: Requests per serve pass: 1% of them lie beyond the p99 (10 samples).
SERVE_REQUESTS = 1000
SMOKE_SERVE_REQUESTS = 40
#: Warm passes after the cold one. With two, the warm request path is
#: about 40% of serve ``wall_s``, so doubling its cost moves ``wall_s``
#: past the bound; the cold pass alone is the other 60%.
WARM_PASSES = 2

#: Client-side serve metrics: (unit, better). ``BENCHMARK.json`` lists them
#: as per-layer ``client.*`` metrics; ``compare`` judges them with
#: :data:`SERVE_METRIC_BOUND`.
SERVE_METRICS = {
    "cold_rps": ("req/s", "higher"),
    "warm_rps": ("req/s", "higher"),
    "cold_p99_ms": ("ms", "lower"),
    "warm_p99_ms": ("ms", "lower"),
    "warm_p50_ms": ("ms", "lower"),
}
SERVE_METRIC_BOUND = 0.25


#: The program's world size depends strongly on its seed: over seeds
#: 1-120 at the small preset, the peak memory of ``all`` spans 187-592 MB
#: and the flows synthesized 54-66 million. A workload is meant to be one
#: input size with varying content, so every benchmark seed picks the
#: program seed from a pool of seeds whose worlds have the same size
#: (see README.md for how the pools were chosen). Seed 2018, the seed of
#: the committed goldens, is in neither pool: its worlds are larger.
SEED_POOLS = {
    "small": (39, 61, 88, 90, 91, 93, 112),
    "paper": (9, 16, 18),
}


def program_seed(preset: str, seed: int) -> int:
    """The program ``--seed`` that benchmark seed ``seed`` stands for."""
    pool = SEED_POOLS[preset]
    return pool[seed % len(pool)]


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why it exists."""

    name: str
    target: str
    experiments: tuple[str, ...] = ()
    preset: str = "small"
    jobs: int = 1
    disk_warm: bool = False
    #: Timed iterations per run even when ``--seconds`` has passed sooner.
    min_iterations: int = 1
    #: ``--smoke`` size: these experiments at the small preset.
    smoke_experiments: tuple[str, ...] = ()

    def size(self, smoke: bool) -> tuple[tuple[str, ...], str]:
        """(experiments, preset) the workload runs."""
        return (self.smoke_experiments, "small") if smoke else (self.experiments, self.preset)

    def argv(self, seed: int, smoke: bool, experiments: tuple[str, ...] | None = None) -> list[str]:
        """The program's CLI arguments for program seed ``seed``.

        ``experiments`` replaces the workload's own list (the golden check
        runs only the experiments that have goldens).
        """
        if self.target == "serve":
            return ["--port", "0", "--preset", self.preset, "--seed", str(seed)]
        own, preset = self.size(smoke)
        argv = [*(own if experiments is None else experiments), "--preset", preset, "--seed", str(seed)]
        if self.jobs != 1:
            argv += ["--jobs", str(self.jobs)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "repro_small_cold",
            "repro",
            experiments=("all",),
            smoke_experiments=("table1", "fig2a"),
        ),
        Workload(
            "repro_small_diskwarm",
            "repro",
            experiments=("all",),
            disk_warm=True,
            # A 5 s iteration feels the box's second-scale speed swings
            # more than the longer workloads do: take the median of three.
            min_iterations=3,
            smoke_experiments=("table1", "fig2a"),
        ),
        Workload(
            "takedown_paper",
            "repro",
            experiments=("fig4", "fig5"),
            preset="paper",
            jobs=2,
            smoke_experiments=("fig5",),
        ),
        Workload(
            "serve_closed_loop",
            "serve",
        ),
    )
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class Measurement:
    """Everything one workload run measured and checked."""

    workload: Workload
    seed: int
    smoke: bool
    program_seed: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    iterations: list[dict[str, Any]] = field(default_factory=list)
    #: Reference digest per operation (experiment id or request target).
    digests: dict[str, str] = field(default_factory=dict)
    traced: dict[str, Any] | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(message)

    def check_digest(self, operation: str, digest: str) -> None:
        """Count ``operation`` failed if it differs from its first digest in this run."""
        if self.digests.setdefault(operation, digest) != digest:
            self.fail(f"{operation}: digest differs between runs of the same seed")

    def e2e(self) -> dict[str, float]:
        """End-to-end metrics: medians over the untraced timed iterations."""
        out = {
            "wall_s": _median([it["wall_s"] for it in self.iterations]),
            "setup_s": _median(self.setup_s),
            "peak_mem_mb": _median([it["peak_mem_mb"] for it in self.iterations]),
            "fail_ratio": self.failed / self.attempted if self.attempted else 0.0,
        }
        if self.workload.target == "serve":
            for name in SERVE_METRICS:
                out[name] = _median([it[name] for it in self.iterations])
        return out

    def experiment_walls(self) -> dict[str, float]:
        ids = sorted({i for it in self.iterations for i in it.get("experiment_wall_s", {})})
        return {i: _median([it["experiment_wall_s"][i] for it in self.iterations]) for i in ids}


def _golden(workload: Workload, smoke: bool) -> dict[str, str]:
    """Golden digest, at program seed :data:`GOLDEN_SEED`, per operation the workload runs."""
    if workload.target == "serve":
        data = json.loads(SERVE_GOLDEN.read_text())
        return {data["query"]: data["series_payload_sha256"]}
    experiments, preset = workload.size(smoke)
    data = json.loads(GOLDENS[preset].read_text())
    return {
        experiment_id: f"{entry['tables_sha256']}:{entry['paper_vs_measured_sha256']}"
        for experiment_id, entry in data["experiments"].items()
        if "all" in experiments or experiment_id in experiments
    }


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


async def _spawn(args: list[str], workdir: Path, tag: str, stdout: Any) -> asyncio.subprocess.Process:
    with open(workdir / f"{tag}.stderr", "wb") as stderr:
        return await asyncio.create_subprocess_exec(
            sys.executable, "-m", "benchmarks.e2e.host", *args,
            cwd=ROOT, env=_child_env(), stdout=stdout, stderr=stderr,
            start_new_session=True,
        )


async def _reap(proc: asyncio.subprocess.Process) -> None:
    """Make sure the child and anything left in its process group are gone."""
    if proc.returncode is None:
        os.killpg(proc.pid, signal.SIGKILL)
        await proc.wait()
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group is already empty: the normal case


def _read_report(path: Path, workdir: Path, tag: str) -> dict[str, Any]:
    if not path.exists():
        tail = (workdir / f"{tag}.stderr").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"child run {tag!r} left no report; stderr tail:\n{tail}")
    return json.loads(path.read_text())


async def _run_repro(argv: list[str], workdir: Path, tag: str, *, traced: bool = False, probe: bool = False) -> dict[str, Any]:
    report_path = workdir / f"{tag}.report.json"
    flags = ["repro", "--report", str(report_path)]
    flags += ["--layers"] if traced else []
    flags += ["--probe"] if probe else []
    stop = threading.Event()
    spawned = time.monotonic()
    with open(workdir / f"{tag}.stdout", "wb") as out:
        proc = await _spawn([*flags, "--", *argv], workdir, tag, out)
    sampler = asyncio.create_task(sample_peak_kb(proc.pid, stop))
    try:
        await asyncio.wait_for(proc.wait(), SPAWN_TIMEOUT_S)
    finally:
        stop.set()
        peak_kb = await sampler
        await _reap(proc)
    report = _read_report(report_path, workdir, tag)
    run = {"setup_s": report["ready"] - spawned, "report": report}
    if not probe:
        run.update(
            wall_s=report["end"] - report["start"],
            peak_mem_mb=peak_kb * 1024 / 1e6,
            maxrss_mb=report["maxrss_kb"] * 1024 / 1e6,
            experiment_wall_s={i: e["wall_s"] for i, e in report["experiments"].items()},
        )
    return run


async def _serve_port(stream: asyncio.StreamReader) -> int:
    while True:
        line = await stream.readline()
        if not line:
            raise RuntimeError("server exited before printing SERVE_READY")
        if line.startswith(b"SERVE_READY"):
            return int(line.decode().strip().rsplit(":", 1)[1])


def _quantile_ms(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] * 1e3


async def _run_serve(argv: list[str], workdir: Path, tag: str, schedule: list[str], passes: int, *, traced: bool = False) -> dict[str, Any]:
    """Boot the server and run ``passes`` passes of ``schedule``.

    A timed iteration is a cold pass and :data:`WARM_PASSES` warm ones;
    a set-up probe runs none.
    """
    report_path = workdir / f"{tag}.report.json"
    flags = ["serve", "--report", str(report_path)] + (["--layers"] if traced else [])
    stop = threading.Event()
    spawned = time.monotonic()
    proc = await _spawn([*flags, "--", *argv], workdir, tag, asyncio.subprocess.PIPE)
    sampler = asyncio.create_task(sample_peak_kb(proc.pid, stop))
    results = []
    try:
        port = await asyncio.wait_for(_serve_port(proc.stdout), SPAWN_TIMEOUT_S)
        setup_s = time.monotonic() - spawned
        results = [await run_pass(port, schedule) for _ in range(passes)]
        stop.set()
        proc.send_signal(signal.SIGINT)
        await asyncio.wait_for(proc.wait(), SPAWN_TIMEOUT_S)
    finally:
        stop.set()
        peak_kb = await sampler
        await _reap(proc)
    report = _read_report(report_path, workdir, tag)
    run: dict[str, Any] = {"setup_s": setup_s, "report": report, "passes": results}
    if passes > 1:
        cold, *warm = results
        warm_wall_s = sum(p.wall_s for p in warm)
        warm_latencies_s = [latency for p in warm for latency in p.latencies_s]
        run.update(
            wall_s=cold.wall_s + warm_wall_s,
            peak_mem_mb=peak_kb * 1024 / 1e6,
            maxrss_mb=report["maxrss_kb"] * 1024 / 1e6,
            cold_rps=len(cold.latencies_s) / cold.wall_s,
            warm_rps=len(warm_latencies_s) / warm_wall_s,
            cold_p99_ms=_quantile_ms(cold.latencies_s, 99),
            warm_p99_ms=_quantile_ms(warm_latencies_s, 99),
            warm_p50_ms=_quantile_ms(warm_latencies_s, 50),
        )
    return run


def _check_report(m: Measurement, report: dict[str, Any], tag: str) -> None:
    if report["error"] is not None or report["rc"] != 0:
        m.problems.append(f"{tag}: main() failed (rc={report['rc']})\n{report['error'] or ''}")


def _repro_digests(m: Measurement, run: dict[str, Any], tag: str) -> dict[str, str]:
    """Count the run's experiments as attempted; their digests by id."""
    report = run["report"]
    _check_report(m, report, tag)
    expected = report["expected"]
    m.attempted += len(expected)
    done = report["experiments"]
    missing = [i for i in expected if i not in done]
    if missing:
        m.fail(f"{tag}: experiments did not complete: {', '.join(missing)}", len(missing))
    return {
        experiment_id: f"{entry['tables_sha256']}:{entry['paper_vs_measured_sha256']}"
        for experiment_id, entry in sorted(done.items())
    }


def _serve_bodies(m: Measurement, run: dict[str, Any], tag: str) -> dict[str, str]:
    """Count the run's requests as attempted; body digests of the first pass by target.

    Every later pass must serve the same bodies as the first.
    """
    _check_report(m, run["report"], tag)
    first, *later = run["passes"]
    for number, result in enumerate(run["passes"]):
        m.attempted += result.attempted
        for failure in result.failures:
            m.fail(f"{tag} pass {number}: {failure}")
    for result in later:
        for target, digest in result.bodies.items():
            if first.bodies.get(target) != digest:
                m.fail(f"{tag}: warm body of {target} differs from the cold body")
    return first.bodies


async def _check_goldens(m: Measurement, workdir: Path) -> None:
    """Untimed child at program seed :data:`GOLDEN_SEED`, checked against the goldens.

    It runs only the operations that have goldens, and without the disk
    tier, so it costs little next to the timed iterations.
    """
    golden = _golden(m.workload, m.smoke)
    if not golden:
        return
    if m.workload.target == "serve":
        run = await _run_serve(m.workload.argv(GOLDEN_SEED, m.smoke), workdir, "golden", list(golden), passes=1)
        digests = _serve_bodies(m, run, "golden")
    else:
        argv = m.workload.argv(GOLDEN_SEED, m.smoke, experiments=tuple(golden))
        digests = _repro_digests(m, await _run_repro(argv, workdir, "golden"), "golden")
    for operation, expected in golden.items():
        if digests.get(operation) != expected:
            m.fail(f"{operation}: digest {digests.get(operation)} differs from the seed-{GOLDEN_SEED} golden {expected}")


def _trace_layers(m: Measurement, run: dict[str, Any], workdir: Path) -> dict[str, Any]:
    """Per-layer metrics of the traced run, with its self-checks."""
    if m.workload.target == "serve":
        per_layer, rolled = layers.layer_metrics(run["report"]["registry"])
        latencies = [latency for p in run["passes"] for latency in p.latencies_s]
        payload_s = sum(
            stats["busy_s"] for name, stats in rolled["functions"].items() if name.endswith("_payload")
        )
        per_layer["serve.wait_ms"] = (sum(latencies) - payload_s) / len(latencies) * 1e3
    else:
        export = json.loads((workdir / "traced.metrics.json").read_text())
        per_layer, rolled = layers.layer_metrics(export["total"])
        per_layer["serve.wait_ms"] = 0.0
        for experiment_id, registry in export["experiments"].items():
            per_layer[f"experiment.{experiment_id}.cache_hits"] = registry["counters"].get("cache.hits", 0)
    trace = json.loads((workdir / "traced.trace.json").read_text())
    dropped = trace["otherData"]["dropped_events"]
    covered = layers.coverage(trace, run["wall_s"])
    untraced_wall = m.e2e()["wall_s"]
    per_layer["trace.coverage"] = covered
    per_layer["trace.dropped_events"] = dropped
    per_layer["trace.overhead_pct"] = (run["wall_s"] - untraced_wall) / untraced_wall * 100
    if dropped:
        m.problems.append(f"traced run dropped {dropped} trace events")
    # At --smoke size interpreter start-up and argument parsing dominate
    # the few milliseconds of work, so coverage is only asserted at size.
    if covered < 0.9 and not m.smoke:
        m.problems.append(f"layer self times cover only {covered:.1%} of the traced wall time (need 90%)")
    return {"metrics": per_layer, "functions": rolled["functions"], "layers": rolled["layers"]}


async def measure(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path) -> Measurement:
    """Run ``workload`` at ``seed``: timed iterations, probes, optional trace."""
    # SIGTERM cancels the run like Ctrl-C does, so every child is reaped.
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, asyncio.current_task().cancel)
    m = Measurement(workload, seed, smoke, program_seed(workload.size(smoke)[1], seed))
    argv = workload.argv(m.program_seed, smoke)
    if workload.disk_warm:
        argv += ["--cache-dir", str(workdir / "day-cache")]
    schedule = build_schedule(seed, SMOKE_SERVE_REQUESTS if smoke else SERVE_REQUESTS)

    async def once(tag: str, traced: bool = False) -> dict[str, Any]:
        if workload.target == "serve":
            extra = ["--trace-out", str(workdir / "traced.trace.json")] if traced else []
            run = await _run_serve(argv + extra, workdir, tag, schedule, passes=1 + WARM_PASSES, traced=traced)
            digests = _serve_bodies(m, run, tag)
        else:
            extra = (
                ["--metrics-out", str(workdir / "traced.metrics.json"), "--trace-out", str(workdir / "traced.trace.json")]
                if traced
                else []
            )
            run = await _run_repro(argv + extra, workdir, tag, traced=traced)
            digests = _repro_digests(m, run, tag)
        for operation, digest in digests.items():
            m.check_digest(operation, digest)
        if not traced:
            m.setup_s.append(run["setup_s"])
        return run

    async def probe() -> None:
        tag = f"probe{len(m.setup_s)}"
        if workload.target == "serve":
            run = await _run_serve(argv, workdir, tag, schedule, passes=0)
        else:
            run = await _run_repro(argv, workdir, tag, probe=True)
        m.setup_s.append(run["setup_s"])

    if workload.disk_warm:
        # Untimed fixture: fills the disk tier the timed runs read from.
        await once("fixture")
    while len(m.setup_s) < SETUP_SAMPLES // 2:
        await probe()
    start = time.monotonic()
    while True:
        m.iterations.append(await once(f"iteration{len(m.iterations)}"))
        if time.monotonic() - start >= seconds and len(m.iterations) >= workload.min_iterations:
            break
    while len(m.setup_s) < SETUP_SAMPLES:
        await probe()
    if seed == GOLDEN_SEED:
        await _check_goldens(m, workdir)
    if workload.jobs == 1:
        for it in m.iterations:
            ratio = it["peak_mem_mb"] / it["maxrss_mb"]
            if abs(ratio - 1) > 0.05:
                m.warnings.append(f"PSS peak is {ratio:.3f}x ru_maxrss (cross-check wants within 5%)")
    if trace:
        m.traced = _trace_layers(m, await once("traced", traced=True), workdir)
    return m
