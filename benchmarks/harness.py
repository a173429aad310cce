"""Runs one workload: set-up, the timed loop or the traced list, and the metrics.

End-to-end metrics come only from untraced runs. A traced run sends a fixed
list of requests twice plainly and twice with the probes of ``spans``
installed; its per-layer figures cover the traced passes, and the ratio of
the two kinds' throughput is the tracing overhead.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, SetupError, digest_files, run_cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 9


# ---------------------------------------------------------------------------
# environment record


def _git_commit(root: Path):
    """HEAD of the checkout's git repository, read without running git; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    """BLAS library, version and the thread count it runs with."""
    info = {"name": None, "version": None, "threads": None,
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line and ".so" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def environment(seed: int) -> dict:
    sources = sorted((SRC / "handrift").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "handrift_threads": os.environ.get("HANDRIFT_THREADS"),
        "git_commit": _git_commit(ROOT),
        # names the code where the checkout is not a git repository
        "src_sha256": digest_files(sources),
        "seed": seed,
        # informational, as ROADMAP tracks it: wc -l src/handrift/*.py
        "src_lines": sum(p.read_bytes().count(b"\n") for p in sources),
    }


# ---------------------------------------------------------------------------
# requests


class Ledger:
    """Requests attempted, and one failure entry per failed request or run-level check."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures: list = []
        self.digests: dict = {}   # job -> digest of its first output

    def send(self, call):
        call.code, call.seconds, call.error = run_cli(call.argv)
        self.attempted += 1
        return call

    def settle(self, call):
        """Check a sent call's output; a nonzero exit or any failed check fails it."""
        if call.code != 0:
            self.failures.append(f"request {call.index}: exit {call.code}: {call.error.strip()[-300:]}")
            return
        problems = self.wl.check(call)
        digest = digest_files([call.out])
        if self.digests.setdefault(self.wl.job(call.index), digest) != digest:
            problems.append("output differs bitwise from an earlier run of the same job")
        if problems:
            self.failures.append(f"request {call.index}: {'; '.join(problems)}")


def setup(wl, run_dir: Path, repeats: int, min_seconds: float) -> list:
    """Set the workload up from scratch; returns the seconds each set-up took.

    At least ``repeats`` set-ups, and more while they have taken under
    ``min_seconds``, so that a set-up of a fraction of a second still gets a
    steady median. Only the first is kept.
    """
    times, digests = [], set()
    while len(times) < repeats or (sum(times) < min_seconds and len(times) < SETUP_MAX_REPEATS):
        d = run_dir / f"setup_{len(times)}"
        d.mkdir(parents=True)
        start = time.perf_counter()
        digests.add(wl.setup(d))
        times.append(time.perf_counter() - start)
        if len(times) > 1:
            shutil.rmtree(d)
    if len(digests) != 1:
        raise SetupError("set-up is not reproducible: repeated set-ups built different inputs")
    wl.setup_digest = digests.pop()
    wl.use(run_dir / "setup_0")
    return times


def measure(wl, seconds: float, ledger: Ledger) -> dict:
    """The timed closed loop, then the repeat requests; returns end-to-end figures.

    Only the CLI calls are timed; building the next request's input is not.
    """
    calls = []
    busy = 0.0
    while len(calls) < wl.min_requests or busy < seconds:
        call = ledger.send(wl.request(len(calls)))
        busy += call.seconds
        ledger.settle(call)
        calls.append(call)
    for i in wl.repeats:
        ledger.settle(ledger.send(wl.request(i, tag="_repeat")))
    # medians, so one request slowed by a neighbour on the machine moves neither figure
    ok = [c.frames / c.seconds for c in calls if c.code == 0]
    return {
        "frames_per_s": statistics.median(ok) if ok else 0.0,
        "latency": [c.seconds for c in calls],
    }


def trace(wl, ledger: Ledger, out_path: Path) -> tuple[dict, dict]:
    """The fixed request list plain, traced, traced, plain; returns (span summary, counters).

    The symmetric order cancels a steady drift in machine speed out of the
    overhead estimate. Spans and counts cover both traced passes.
    """
    def frames_per_s(calls):
        return sum(c.frames for c in calls) / sum(c.seconds for c in calls)

    tracer = Tracer()
    plain, traced = [], []
    for passes, probed in ((plain, False), (traced, True), (traced, True), (plain, False)):
        # inputs are built before the probes go in, and checked after they come out
        calls = [wl.request(i, tag=f"_{'traced' if probed else 'plain'}{len(passes)}")
                 for i in wl.trace_requests]
        if probed:
            with tracer:
                for call in calls:
                    tracer.request = call.index
                    ledger.send(call)
        else:
            for call in calls:
                ledger.send(call)
        passes.extend(calls)
    for call in plain + traced:
        ledger.settle(call)
    tracer.write(out_path)
    missing = tracer.missing(wl.expected_spans)
    if missing:
        ledger.failures.append(f"expected spans never fired: {missing}")
    counters = dict(tracer.counts)
    if all(c.code == 0 for c in plain + traced):
        counters["trace.overhead_frac"] = 1.0 - frames_per_s(traced) / frames_per_s(plain)
    return tracer.summary(), counters


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl, setup_times, figures, ledger, peak_rss_mb) -> dict:
    accl, err = wl.quality_means() if wl.quality else (float("nan"), float("nan"))
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "frames_per_s": (figures["frames_per_s"], "frames/s"),
        "latency_p50_s": (statistics.median(figures["latency"]), "s"),
        "passed_frac": (1.0 - len(ledger.failures) / max(ledger.attempted, 1), "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "accl_mm": (accl, "mm/frame2"),
        "mje_mm": (err, "mm"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _span(name, field, unit):
    return (f"{name}.{field}", unit, (name, field))


# name, unit, and (span, field) or a counter key
PER_LAYER = [
    _span("denoiser.forward_free", "calls", "count"),
    _span("denoiser.forward_free", "s", "s"),
    _span("denoiser.forward_free", "self_s", "s"),
    _span("denoiser.encode", "s", "s"),
    _span("denoiser.encode", "self_s", "s"),
    _span("denoiser.encode_meshes", "s", "s"),
    _span("denoiser.decode_teacher", "s", "s"),
    _span("tensor.backward", "calls", "count"),
    _span("tensor.backward", "s", "s"),
    ("tensor.matmul.calls", "count", "tensor.matmul.calls"),
    ("tensor.matmul.flops", "flop", "tensor.matmul.flops"),
    _span("optim.AdamW.step", "calls", "count"),
    _span("optim.AdamW.step", "s", "s"),
    _span("trainer.total_loss", "s", "s"),
    _span("trainer.total_loss", "self_s", "s"),
    _span("trainer.refine_sequence", "s", "s"),
    _span("physics.kinetics_loss", "s", "s"),
    _span("physics.stability_loss", "s", "s"),
    _span("physics.state_loss", "s", "s"),
    _span("physics.annotate_states", "s", "s"),
    _span("diffusion.refine", "calls", "count"),
    _span("diffusion.reverse_transition", "calls", "count"),
    _span("pipeline.refine_sequence", "self_s", "s"),
    _span("pipeline.evaluate_pair", "s", "s"),
    _span("pipeline.evaluate_pair", "self_s", "s"),
    _span("pipeline.load_bundle", "s", "s"),
    _span("hand.fk_transforms", "calls", "count"),
    _span("hand.fk_transforms", "s", "s"),
    ("hand.fk_transforms.count", "frames", "hand.fk_transforms.count"),
    _span("hand.skin_mesh_batch", "calls", "count"),
    _span("hand.skin_mesh_batch", "s", "s"),
    ("hand.skin_mesh_batch.count", "frames", "hand.skin_mesh_batch.count"),
    _span("metrics.procrustes_align", "calls", "count"),
    _span("metrics.procrustes_align", "s", "s"),
    _span("metrics.p_mve_and_fscores", "s", "s"),
    _span("motionfile.read_motion", "s", "s"),
    _span("motionfile.write_motion", "s", "s"),
    _span("datagen.perturb", "s", "s"),
    ("trace.overhead_frac", "fraction", "trace.overhead_frac"),
]


def per_layer(summary: dict, counters: dict) -> dict:
    """Every per-layer metric; a layer the workload never reaches reads 0."""
    out = {}
    for name, unit, source in PER_LAYER:
        if isinstance(source, tuple):
            value = summary.get(source[0], {}).get(source[1], 0)
        else:
            value = counters.get(source, 0)
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result, informational record)."""
    wl = WORKLOADS[workload](seed)
    info = {"env": environment(seed), "workload": workload, "trace": int(traced)}
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ledger = Ledger(wl)
    try:
        # a traced run reports no setup_s, so it sets up once
        repeats, min_seconds = (1, 0.0) if traced else (SETUP_REPEATS, SETUP_MIN_SECONDS)
        setup_times = setup(wl, run_dir, repeats, min_seconds)
        info["setup_s_samples"] = setup_times
        info["setup_sha256"] = wl.setup_digest
        if traced:
            trace_path = WORK / f"trace-{workload}-seed{seed}.jsonl"
            summary, counters = trace(wl, ledger, trace_path)
            metrics = per_layer(summary, counters)
            info["trace_file"] = str(trace_path.relative_to(ROOT))
            info["trace_requests"] = list(wl.trace_requests)
        else:
            figures = measure(wl, seconds, ledger)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(wl, setup_times, figures, ledger, peak)
            info["latency_samples"] = len(figures["latency"])
            info["latency_s"] = figures["latency"]
        info["inputs_sha256"] = wl.inputs_digest()
        if hasattr(wl, "loss_final"):
            info["train_loss_final"] = wl.loss_final
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    info["failures"] = ledger.failures
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    return result, info
