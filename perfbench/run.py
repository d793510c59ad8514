#!/usr/bin/env python3
"""Benchmark of rulerverse: four seeded workloads driven through the real CLI.

From the root of a checkout:

    python3 perfbench/run.py --workload pipeline_cold --seed 1 --seconds 20 --trace 0

A run first sets the workload up SETUP_REPEATS times, each in a fresh child
process, and reports the median as ``setup_s``.  It then repeats whole rounds
of the workload in this process for ``--seconds`` seconds; a round calls
``rulerverse.cli.main`` once per stage, and the end-to-end metrics are medians
over rounds.  With ``--trace 1`` traced and untraced rounds alternate, and the
run reports per-layer metrics instead.  The last line of standard output is
the JSON result; README.md describes it.
"""
from __future__ import annotations

import argparse
import array
import fcntl
import gc
import http.client
import importlib.util
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import workload as wl_data
from spans import Tracer, layer_metrics, layer_unit
from stub import LATENCY_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
SETUP_REPEATS = 7
MIN_ROUNDS = 3  # a warm-up round, then at least one traced and one untraced
JOBS = 2  # the cores of the reference machine; see README.md
RUN_ID = "bench"
STAGE_SUMMARIES = {
    "translate": "translate", "ruler": "ruler", "gen": "verse_gen",
    "classify": "verse_classify", "grade": "verse_grade", "agree": "agree",
}
CHILD_TIMEOUT_S = 120
_FS_IOC_GETFLAGS, _FS_IOC_SETFLAGS, _FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "out_mb": "MB", "out_files": "count"}


def _require_checkout() -> None:
    if not (SRC / "rulerverse" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC}/rulerverse not found; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _make_work_root() -> None:
    """Create WORK with the ext4 "top directory" flag (chattr +T).

    Every set-up and every round writes into its own new directory in WORK,
    and a run deletes them only when it ends.  On ext4 without a journal,
    creating a file next to inodes freed in the last minutes costs many times
    more CPU (measured: 0.4 ms against 0.02 ms of system time per file), and
    such inodes pile up where earlier runs deleted.  Under a top directory,
    ext4 spreads new subdirectories over block groups, so the rare round that
    lands next to recent deletions is one round, not a whole run.  Other file
    systems lack the flag; there the call changes nothing.
    """
    WORK.mkdir(exist_ok=True)
    fd = os.open(WORK, os.O_RDONLY)
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, _FS_IOC_GETFLAGS, flags, True)
        flags[0] |= _FS_TOPDIR_FL
        fcntl.ioctl(fd, _FS_IOC_SETFLAGS, flags)
    except OSError:
        pass
    finally:
        os.close(fd)


class BenchError(Exception):
    """The workload could not run, so there is nothing to measure."""


# -- workloads --

class Workload:
    """One set of inputs and the CLI stages a round runs over them."""

    stages: tuple[str, ...] = ()

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.inputs = root / "inputs"

    def setup(self) -> None:
        """All work that precedes the timed phase; runs in a set-up child."""
        raise NotImplementedError

    def open(self) -> None:
        """Attach the measuring process to the outputs of the last set-up."""
        self.plan = json.loads((self.inputs / "plan.json").read_text(encoding="utf-8"))

    def close(self) -> None:
        pass

    def out_root(self, i: int) -> Path:
        return self.root.with_name(f"{self.root.name}-round{i}")

    def argvs(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def reference(self) -> dict | None:
        """Artifact digests every round must reproduce; None: the first round's."""
        return None

    def transport(self) -> tuple[int, int]:
        """(requests, connections) the backend has served so far."""
        return 0, 0

    def check_counts(self, summaries: dict[str, dict], requests: int) -> list[str]:
        raise NotImplementedError

    def check_outputs(self, run_dir: Path) -> list[str]:
        raise NotImplementedError


class PipelineCold(Workload):
    """translate, ruler, verse gen/classify/grade and report with the mock judge."""

    stages = ("translate", "ruler", "gen", "classify", "grade", "report")
    size = wl_data.PIPELINE
    warm = False

    def setup(self) -> None:
        wl_data.write_pipeline(self.inputs, self.seed, self.size)

    def _common(self, out: Path) -> list[str]:
        return [
            "--corpus", str(self.inputs / "corpus.jsonl"),
            "--stories", str(self.inputs / "stories.jsonl"),
            "--candidates", *(str(self.inputs / c) for c in self.plan["candidates"]),
            "--backend", "mock", "--script", str(self.inputs / "mock_script.json"),
            "--out", str(out), "--run-id", RUN_ID, "--jobs", str(JOBS),
        ]

    def argvs(self, out: Path) -> list[list[str]]:
        common = self._common(out)
        extra = {"translate": ["--bank-stories", *self.plan["bank_stories"]],
                 "gen": ["--n-questions", str(self.plan["size"]["questions"])]}
        return [
            (["verse", stage] if stage in ("gen", "classify", "grade") else [stage])
            + common + extra.get(stage, [])
            for stage in self.stages
        ]

    def check_counts(self, summaries: dict[str, dict], requests: int) -> list[str]:
        return self._count_errors(summaries, self.warm)

    def _count_errors(self, summaries: dict[str, dict], warm: bool) -> list[str]:
        """Every call a miss on a cold cache, every call a hit on a warm one."""
        errors = []
        for stage, (items, calls) in wl_data.planned_calls(self.plan, tuple(summaries)).items():
            s = summaries[stage]
            want = (items, 0, 0, calls) if warm else (items, 0, calls, 0)
            got = (s["items_total"], s["items_failed"], s["backend_calls"], s["cache_hits"])
            if got != want:
                errors.append(f"{stage}: (items, failed, calls, hits) {got} != {want}")
        return errors

    def check_outputs(self, run_dir: Path) -> list[str]:
        return wl_data.check_pipeline(self.plan, run_dir, self.stages)


class PipelineWarm(PipelineCold):
    """The cold pipeline again over a cache the set-up filled: every call is a hit."""

    warm = True

    def out_root(self, i: int) -> Path:
        return self.root / "out"

    def setup(self) -> None:
        from rulerverse import cli

        super().setup()
        Workload.open(self)
        out = self.out_root(0)
        for argv in self.argvs(out):
            if cli.main(argv) != 0:
                raise BenchError(f"cache fill failed at {argv[:2]}")
        errors = self._count_errors(_summaries(out / RUN_ID, self.stages), warm=False)
        if errors:
            raise BenchError(f"cache fill: {errors}")
        (self.root / "cold_digests.json").write_text(
            json.dumps(wl_data.digests(out / RUN_ID)), encoding="utf-8")

    def reference(self) -> dict | None:
        return json.loads((self.root / "cold_digests.json").read_text(encoding="utf-8"))


class LiveLoopback(PipelineCold):
    """ruler and verse grade on a fresh cache against the loopback stub."""

    stages = ("ruler", "grade")
    size = wl_data.LIVE

    def setup(self) -> None:
        super().setup()
        proc, _ = _start_stub(self.inputs / "plan.json")
        _stop(proc)

    def open(self) -> None:
        super().open()
        self.stub, self.port = _start_stub(self.inputs / "plan.json")

    def close(self) -> None:
        _stop(self.stub)

    def _common(self, out: Path) -> list[str]:
        common = super()._common(out)
        at = common.index("--backend")
        common[at:at + 4] = [
            "--backend", "live", "--model", "stub-judge",
            "--endpoint", f"http://127.0.0.1:{self.port}/v1/chat/completions",
            "--questions", str(self.inputs / "questions.jsonl"),
        ]
        return common

    def transport(self) -> tuple[int, int]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            stats = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        return stats["requests"], stats["connections"]

    def check_counts(self, summaries: dict[str, dict], requests: int) -> list[str]:
        errors = super().check_counts(summaries, requests)
        calls = sum(s["backend_calls"] for s in summaries.values())
        if requests != calls:
            errors.append(f"stub served {requests} requests for {calls} backend calls")
        return errors


class AgreeLarge(Workload):
    """agree with model annotations: O(n^2) tau-b, three alignments per pair, alpha."""

    stages = ("agree",)
    size = wl_data.AGREE

    def setup(self) -> None:
        wl_data.write_agree(self.inputs, self.seed, self.size)

    def argvs(self, out: Path) -> list[list[str]]:
        return [[
            "agree", "--corpus", str(self.inputs / "corpus.jsonl"),
            "--annotations", str(self.inputs / "human.jsonl"),
            "--model-annotations", str(self.inputs / "model.jsonl"),
            "--out", str(out), "--run-id", RUN_ID, "--jobs", str(JOBS),
        ]]

    def check_counts(self, summaries: dict[str, dict], requests: int) -> list[str]:
        s = summaries["agree"]
        want = (5 * self.plan["size"]["human"], 0)
        got = (s["items_total"], s["items_failed"])
        return [] if got == want else [f"agree: (items, failed) {got} != {want}"]

    def check_outputs(self, run_dir: Path) -> list[str]:
        spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
        oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracles)
        return wl_data.check_agree(self.inputs, run_dir, oracles)


WORKLOADS = {
    "pipeline_cold": PipelineCold,
    "pipeline_warm": PipelineWarm,
    "live_loopback": LiveLoopback,
    "agree_large": AgreeLarge,
}


def _start_stub(plan: Path) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--plan", str(plan)],
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        _stop(proc)
        raise BenchError(f"stub did not start: {line!r}")
    return proc, int(line.split()[1])


def _summaries(run_dir: Path, stages: tuple[str, ...]) -> dict[str, dict]:
    return {
        stage: json.loads((run_dir / f"{STAGE_SUMMARIES[stage]}_summary.json").read_text("utf-8"))
        for stage in stages if stage in STAGE_SUMMARIES
    }


# -- steal --

def _cpu_ticks() -> list[int]:
    """The machine's CPU time counters (user, nice, system, idle, ..., steal)."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except OSError:
        return []


def _steal_share(before: list[int]) -> float:
    """Share of the machine's non-idle CPU time since `before` that was steal.

    Steal is CPU time a virtual machine wanted while the hypervisor ran other
    guests; the guest counts it in /proc/stat and leaves it out of process CPU
    time.  Idle and iowait ticks are left out of the total, so the share does
    not depend on how many cores sat idle.  0 without steal (bare metal, or no
    /proc/stat).
    """
    ticks = [b - a for a, b in zip(before, _cpu_ticks())]
    if len(ticks) < 8:
        return 0.0
    busy = sum(ticks[:8]) - ticks[3] - ticks[4]
    return ticks[7] / busy if busy else 0.0


def _net_of_steal(wall: float, cpu: float, steal: float) -> float:
    """Wall time less an estimate of the part the hypervisor stole from it.

    This is a model, not a measurement.  On the reference VM steal came in
    episodes of minutes, at 30-50 % of the non-idle CPU time, that made every
    round of a run up to 40 % longer while its CPU time did not move.  The
    process's `cpu` seconds, served at the rate (1 - steal), kept its threads
    busy for cpu / (1 - steal) seconds; at most `wall` of that is on the
    critical path, and the `steal` share of it is taken as stolen.  CPU-bound
    work thus counts wall x (1 - steal); work that mostly waits, such as
    live_loopback's, loses only the stretch of its CPU part.  Without steal
    this is the wall time itself.
    """
    busy = min(wall, cpu / (1.0 - steal)) if steal < 1.0 else wall
    return wall - busy * steal


# -- set-up, timed in child processes --

def _setup_child(name: str, seed: int, root: Path) -> None:
    import rulerverse.cli  # noqa: F401 - imports are part of set-up time

    WORKLOADS[name](root, seed).setup()
    print("READY", sum(os.times()[:4]), flush=True)


def timed_setups(name: str, seed: int, prefix: str) -> tuple[list[dict], Path]:
    """Set the workload up SETUP_REPEATS times; the run uses the last set-up's files.

    Returns each set-up's wall time, its CPU time (the stub's included), the
    machine's steal share over it, and the wall time net of steal.
    """
    setups = []
    for k in range(SETUP_REPEATS):
        root = WORK / f"{prefix}-setup{k}"
        ticks = _cpu_ticks()
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child", name,
             "--seed", str(seed), "--root", str(root)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            word, _, cpu = proc.stdout.readline().partition(" ")
            wall, steal = perf_counter() - start, _steal_share(ticks)
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            _stop(proc)
        if word != "READY" or proc.returncode != 0:
            raise BenchError(f"set-up of {name} failed (exit {proc.returncode})")
        setups.append({"wall_s": wall, "cpu_s": float(cpu), "steal": steal,
                       "net_wall_s": _net_of_steal(wall, float(cpu), steal)})
    return setups, root


# -- the timed phase --

def _round(wl: Workload, i: int, tracer) -> tuple[Path, dict, dict]:
    """One timed round; returns its output root, measurements and summaries."""
    from rulerverse import cli

    out = wl.out_root(i)
    argvs = wl.argvs(out)
    requests0, connections0 = wl.transport()
    if tracer:
        tracer.reset()
    gc.collect()
    ticks = _cpu_ticks()
    start, cpu = perf_counter(), process_time()
    codes = [cli.main(argv) for argv in argvs]
    wall, cpu = perf_counter() - start, process_time() - cpu
    steal = _steal_share(ticks)
    requests, connections = (a - b for a, b in zip(wl.transport(), (requests0, connections0)))
    if any(codes):
        raise BenchError(f"a stage exited with {codes}")
    summaries = _summaries(out / RUN_ID, wl.stages)
    files, size = wl_data.tree_size(out)
    this = {
        "wall_s": wall, "cpu_s": cpu, "out_files": files, "out_mb": size / 1e6,
        "requests": requests, "warmup": i == 0, "traced": tracer is not None,
        "steal": steal, "net_wall_s": _net_of_steal(wall, cpu, steal),
        "attempted": sum(s["items_total"] for s in summaries.values()),
        "failed": sum(s["items_failed"] for s in summaries.values()),
    }
    if tracer:
        layers = layer_metrics(tracer.spans)
        cache_files, cache_bytes = wl_data.tree_size(out / "judge_cache")
        layers.update({
            "judge.cache.files": cache_files, "judge.cache.mb": cache_bytes / 1e6,
            "judge.transport.requests": requests,
            "judge.transport.connections": connections,
            "judge.transport.retries": requests - layers["judge.misses"] if requests else 0,
        })
        this["layers"] = layers
    return out, this, summaries


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    """Whole rounds for `seconds`; round 0 warms up and is left out of the medians.

    A run starts no round that its mean round so far says would end past
    `seconds`, so it lasts about `seconds` whatever the round size.  With
    `trace`, odd rounds run traced and even ones untraced, so that drift of
    the host affects both alike.
    """
    tracer = Tracer() if trace else None
    reference = wl.reference()
    kept: Path | None = None
    errors: list[str] = []
    rounds: list[dict] = []
    start = perf_counter()
    for n in itertools.count(1):
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            out, this, summaries = _round(wl, len(rounds), tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        errors += wl.check_counts(summaries, this["requests"])
        if reference is None:
            reference = wl_data.digests(out / RUN_ID)
        elif wl_data.digests(out / RUN_ID) != reference:
            errors.append(f"round {len(rounds)}: artifacts differ from the reference")
        kept = kept or out
        rounds.append(this)
        elapsed = perf_counter() - start
        if n >= MIN_ROUNDS and elapsed * (n + 1) / n > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    errors += wl.check_outputs(kept / RUN_ID)
    return {"rounds": rounds, "peak_rss_mb": peak_rss_mb, "errors": errors,
            "spans": tracer.spans if tracer else []}


def summarize(measured: dict, setups: list[dict], trace: bool) -> dict:
    rounds = measured["rounds"]
    timed = [r for r in rounds if not r["warmup"]]
    if trace:
        traced = [r for r in timed if r["traced"]]
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced),
                   "unit": layer_unit(name)}
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in timed if not r["traced"]),
            "unit": "s",
        }
    else:
        last = rounds[-1]
        values = {
            "setup_s": statistics.median(s["net_wall_s"] for s in setups),
            "wall_s": statistics.median(r["net_wall_s"] for r in timed),
            "cpu_s": statistics.median(r["cpu_s"] for r in timed),
            "peak_rss_mb": measured["peak_rss_mb"],
            "out_mb": last["out_mb"],
            "out_files": last["out_files"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": not measured["errors"],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="rulerverse benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    _require_checkout()
    if args.setup_child:
        _setup_child(args.setup_child, args.seed, args.root)
        return 0
    if not args.workload:
        parser.error("--workload is required")

    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    _make_work_root()
    prefix = f"{args.workload}-{os.getpid()}"
    try:
        setups, root = timed_setups(args.workload, args.seed, prefix)
        wl = WORKLOADS[args.workload](root, args.seed)
        wl.open()
        try:
            measured = measure(wl, args.seconds, bool(args.trace))
        finally:
            wl.close()
    finally:
        for path in WORK.glob(f"{prefix}-*"):
            shutil.rmtree(path, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    result = summarize(measured, setups, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        **result, "setups": setups, "rounds": measured["rounds"], "errors": measured["errors"],
        "stub_latency_ms": LATENCY_MS,
    }, indent=1), encoding="utf-8")
    if args.trace:
        with (RESULTS / f"{stem}-spans.jsonl").open("w", encoding="utf-8") as f:
            for span in measured["spans"]:
                f.write(json.dumps(dict(zip(("id", "parent", "name", "start", "end", "tag"), span)))
                        + "\n")
    for error in measured["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
