"""The hetfed benchmark: three federated workloads, timed end to end and per module.

Run from the root of a checkout:

    python3 bench/bench.py --workload width_train --seed 1 --seconds 20 --trace 0

Each run loads `bench/workloads/<workload>.cfg` with `master_seed = <seed>`
and calls `hetfed.runner.run_experiment` on it again and again, in this
process, with `workers = 1`, until `--seconds` have been measured (at least
three times). The first call is an untimed warm-up that also checks that
every studied strategy gets at least two distinct model variants.

`--trace 0` prints the end-to-end metrics, with times scaled to a reference
speed measured by a fixed loop timed between the calls (see
`reference_s`); `--trace 1` alternates untraced and traced calls and
prints the per-module metrics. Every call's outputs
are checked (finite, in-range accuracies; the expected rounds; the same
digest as every other call of the run). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
`attempted` and `failed` count jobs (strategy x repeat). A report with the
environment, digests and figures, and the spans of the last traced call,
are written under `bench/.out/`.

hetfed is imported from `src/` of the checkout; without it the benchmark
exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracing import JobClock, Patches, Tracer, aggregate, patch_function, perf_counter, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(HERE, ".out")

WORKLOADS = {
    "width_train": "width sub-models trained, scattered and normalized every round: extraction bookkeeping does the most work",
    "depth_eval": "50 clients evaluated every 2 rounds, 2 trained per round: evaluation and read-only depth extraction dominate",
    "topology_distill": "fedet alone: local training plus distillation, no extraction or scatter, a single job",
}
MIN_REPS = 3
TIME_CAP_S = 150.0  # a run must end within 180 s even when calls are slow

# The speed of a shared machine drifts by up to a third over minutes, and
# the drift moves every timed call alike. A fixed reference loop, timed
# between the calls, measures it: end-to-end times are reported at the
# speed where the loop takes REFERENCE_NOMINAL_S. The loop does what
# hetfed's inner loops do at desk scale (8x8 matmuls, ReLU, dict updates)
# and imports nothing from hetfed, so a change to hetfed cannot move it.
REFERENCE_NOMINAL_S = 0.1
REFERENCE_STEPS = 2000
EXCEPTION_PREFIX = "# bench: single_variant "

NOTES = [
    "all calls run in this process with workers = 1; the benchmark starts no threads, and OpenBLAS may start its own (not pinned)",
    "no layer waits on another at workers = 1, so no wait times are reported",
    "setup_s, run_s and client_updates_per_s are scaled to the speed at which the reference loop takes "
    f"{REFERENCE_NOMINAL_S} s; their wall-clock medians are printed beside them; per-layer times are wall clock",
    "workers = 2 is left out of every workload: in a prototype it ran width_train 40% slower than serial "
    "(10.0-15.0 s against 6.0-7.4 s) and was too unsteady to gate on, though its CSVs were byte-identical",
    "a digest that differs from another commit's is not a failure (rounds-CSV schema changes are expected); "
    "within one run every call must give the same digest",
]

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "client_updates_per_s": "1/s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# environment


def import_hetfed():
    package = os.path.join(SRC, "hetfed")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"bench: no hetfed sources at {package}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import hetfed
    import hetfed.runner  # noqa: F401  (imports every module the runner uses)

    if os.path.realpath(os.path.dirname(hetfed.__file__)) != os.path.realpath(package):
        sys.exit(f"bench: imported hetfed from {hetfed.__file__}, not from {package}")
    return hetfed


def blas_runtime_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    build = blas.get("openblas configuration", "")
    max_threads = next((w.split("=", 1)[1] for w in build.split() if w.startswith("MAX_THREADS=")), None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_runtime_threads(),
        "blas_build_max_threads": max_threads,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# workloads and output checks


def load_workload(name: str, seed: int, out_dir: str) -> tuple[str, dict[str, str]]:
    """Write the workload config with the seed as master_seed; return its
    path and the strategies allowed a single variant, with the reasons."""
    with open(os.path.join(HERE, "workloads", name + ".cfg"), encoding="utf-8") as fh:
        text = fh.read()
    exceptions = {}
    for line in text.splitlines():
        if line.startswith(EXCEPTION_PREFIX):
            sid, _, reason = line[len(EXCEPTION_PREFIX):].partition(" -- ")
            exceptions[sid.strip()] = reason.strip()
    path = os.path.join(out_dir, name + ".cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{text}\nmaster_seed = {seed}\n")
    return path, exceptions


def job_ids(cfg) -> list[tuple[str, int]]:
    sids = list(cfg.strategies)
    if cfg.include_baseline and "fedavg_smallest" not in sids:
        sids.append("fedavg_smallest")
    return [(sid, r) for sid in sids for r in range(cfg.repeats)]


def eval_rounds(cfg) -> list[int]:
    return [r for r in range(1, cfg.num_rounds + 1) if r % cfg.eval_cadence == 0 or r == cfg.num_rounds]


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_job(cfg, summary: dict, run_dir: str, sid: str, repeat: int) -> tuple[str, str | None]:
    """(job digest, failure or None) from the job's rounds CSV and summary entry."""
    path = os.path.join(run_dir, f"rounds_{sid}_r{repeat}.csv")
    entry = summary["strategies"].get(sid)
    if not os.path.exists(path) or entry is None:
        return "", "missing outputs"
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw + json.dumps(entry, sort_keys=True).encode("utf-8")).hexdigest()
    lines = raw.decode("utf-8").splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if [int(row[0]) for row in rows] != eval_rounds(cfg):
        return digest, f"rounds {[row[0] for row in rows]} are not the eval rounds"
    values = {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}
    accuracies = values["global_acc"] + values["mean_client_acc"] + [entry["final_global_accuracy"]]
    if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in accuracies):
        return digest, "non-finite or out-of-range accuracy"
    if not all(math.isfinite(v) and v >= 0.0 for v in values["stability_var"]):
        return digest, "non-finite or negative stability variance"
    clock = values["sim_time_s"]
    if not all(math.isfinite(t) for t in clock) or any(b < a for a, b in zip(clock, clock[1:])):
        return digest, "simulated clock is not finite and non-decreasing"
    return digest, None


def workload_digest(run_dir: str) -> str:
    names = sorted(n for n in os.listdir(run_dir) if n.startswith("rounds_") and n.endswith(".csv"))
    h = hashlib.sha256()
    for name in names + ["summary.json"]:
        h.update(f"{name} {sha256_file(os.path.join(run_dir, name))}\n".encode("utf-8"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one call of run_experiment


def reference_s() -> float:
    """Seconds the fixed reference loop takes now."""
    rng = np.random.default_rng(0)
    weights = {f"l{i}": rng.standard_normal((8, 8)) for i in range(6)}
    x = rng.standard_normal((32, 8))
    start = perf_counter()
    for _ in range(REFERENCE_STEPS):
        h = x
        cache = {}
        for key, w in weights.items():
            h = np.maximum(h @ w, 0.0)
            cache[key] = h
        grads = {key: a.T @ h for key, a in cache.items()}
        for key in weights:
            weights[key] = weights[key] - 1e-6 * grads[key]
    return perf_counter() - start


@dataclass
class Rep:
    traced: bool
    run_s: float = math.nan
    setup_s: float = math.nan
    job_setup_s: float = math.nan
    updates: int = 0
    digest: str = ""
    job_digests: dict = field(default_factory=dict)
    failed_jobs: dict = field(default_factory=dict)   # job id -> reason
    problems: list = field(default_factory=list)      # failed checks not tied to one job
    layers: dict | None = None
    round_ms: list | None = None
    groups: dict | None = None
    reference_s: float = math.nan   # mean of the reference loop before and after the call

    @property
    def client_updates_per_s(self) -> float:
        # Set-up inside the call is excluded; load_config runs before it.
        return self.updates / (self.run_s - self.job_setup_s)


class Bench:
    def __init__(self, hetfed, workload: str, cfg_path: str, out_dir: str):
        self.hf = hetfed
        self.workload = workload
        self.cfg_path = cfg_path
        self.run_dir = os.path.join(out_dir, "run")
        self.clock = JobClock()
        self.patches = Patches()
        self.clock.install(self.patches, hetfed.runner, hetfed.strategies.STRATEGY_CLASSES.values())
        self.reference: dict = {}
        self.last_tracer: Tracer | None = None
        self.cfg = None

    def close(self) -> None:
        self.patches.restore()

    def run(self, traced: bool, extra_patches=None) -> Rep:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.clock.jobs.clear()
        rep = Rep(traced)
        patches = Patches()
        tracer = None
        if traced:
            tracer = Tracer(self.workload, self.hf.resources.estimate_flops)
            tracer.install(patches, self.hf)
        if extra_patches is not None:
            extra_patches(patches)
        try:
            t0 = perf_counter()
            cfg = self.hf.config.load_config(self.cfg_path)
            t1 = perf_counter()
            summary = self.hf.runner.run_experiment(cfg, self.run_dir)
            t2 = perf_counter()
        except Exception:
            if self.cfg is None:
                raise  # the warm-up call failed: there is nothing to time
            traceback.print_exc(file=sys.stderr)
            rep.failed_jobs = {f"{sid}_r{r}": "run_experiment raised" for sid, r in job_ids(self.cfg)}
            return rep
        finally:
            patches.restore()
        self.cfg = cfg
        rep.run_s = t2 - t1
        rep.job_setup_s = sum(job.setup_s for job in self.clock.jobs)
        rep.setup_s = (t1 - t0) + rep.job_setup_s
        rep.updates = sum(job.updates for job in self.clock.jobs)
        rep.digest = workload_digest(self.run_dir)
        for sid, r in job_ids(cfg):
            digest, failure = check_job(cfg, summary, self.run_dir, sid, r)
            reference = self.reference.setdefault((sid, r), digest)
            if failure is None and digest != reference:
                failure = "output digest differs from the first call of this run"
            rep.job_digests[f"{sid}_r{r}"] = digest
            if failure is not None:
                rep.failed_jobs[f"{sid}_r{r}"] = failure
        if tracer is not None:
            self.last_tracer = tracer
            layer_metrics(rep, tracer, cfg)
        return rep


def capture_assignments(bench: Bench) -> tuple[Rep, dict]:
    """Warm-up call that records the variant each job assigns to each client."""
    assigned: dict[tuple[str, int], list[str]] = {}

    def install(patches: Patches) -> None:
        def wrap(original):
            def assign_models(*args, **kwargs):
                result = original(*args, **kwargs)
                job = bench.clock.jobs[-1]
                assigned[(job.strategy, job.repeat)] = [v.variant_id for v in result]
                return result

            return assign_models

        patch_function(patches, bench.hf.resources, "assign_models", wrap)

    rep = bench.run(False, install)
    return rep, assigned


def binding_precheck(cfg, assigned: dict, exceptions: dict[str, str]) -> list[str]:
    """Every studied strategy gets >= 2 distinct variants on every repeat,
    unless the workload names it as an exception."""
    problems = []
    for sid in cfg.strategies:
        for r in range(cfg.repeats):
            distinct = set(assigned.get((sid, r), []))
            if sid in exceptions:
                if len(distinct) > 1:
                    problems.append(f"{sid} r{r}: listed as single-variant but gets {sorted(distinct)}")
            elif len(distinct) < 2:
                problems.append(f"{sid} r{r}: every client gets {sorted(distinct)}; the tiers do not bind")
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics of one traced call

COUNT_SUFFIXES = (".calls", ".rows", ".coords", ".bytes", ".mflop", "distinct_share")


def layer_unit(name: str) -> str:
    for suffix, unit in ((".mflop_per_s", "Mflop/s"), (".mflop", "Mflop"), ("_ms", "ms"), ("_s", "s"),
                         (".bytes", "B"), ("share", "share")):
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def span_group(name: str, phase: str | None) -> str:
    if phase == "eval":
        return "evaluation"
    if phase == "setup":
        return "setup"
    if name.startswith("extract."):
        return "sub-model maps"
    if name.startswith("nn."):
        return "local training"
    if name == "strategies.run_round":
        return "round loop"
    return "runner"


EVAL_ROOTS = ("strategies.client_eval_model", "metrics.model_accuracy")
SETUP_ROOTS = ("config.load_config", "datasets.", "resources.sample_profiles", "resources.build_pool",
               "resources.assign_models")


def layer_metrics(rep: Rep, tracer: Tracer, cfg) -> None:
    spans = tracer.spans
    stats = aggregate(spans)

    def calls(name: str) -> int:
        return stats[name].calls if name in stats else 0

    def self_s(*names: str) -> float:
        return sum(stats[n].self_s for n in names if n in stats)

    def extras(name: str) -> list:
        return stats[name].extras if name in stats else []

    out: dict = {}
    out["config.load_config.self_s"] = self_s("config.load_config")
    builds = ("datasets.gen_synthetic", "datasets.load_csv", "datasets.split_global", "datasets.partition")
    out["datasets.build.calls"] = calls("datasets.gen_synthetic") + calls("datasets.load_csv")
    out["datasets.build.self_s"] = self_s(*builds)
    out["resources.setup.self_s"] = self_s(
        "resources.sample_profiles", "resources.build_pool", "resources.assign_models")
    out["resources.estimate_times.calls"] = calls("resources.estimate_times")
    out["resources.fedepth_segments.calls"] = calls("resources.fedepth_segments")

    backward = extras("nn.backward")
    backward_self = self_s("nn.backward")
    mflop = sum(flop for _, flop in backward) / 1e6
    out["nn.backward.calls"] = calls("nn.backward")
    out["nn.backward.self_s"] = backward_self
    out["nn.backward.rows"] = sum(rows for rows, _ in backward)
    out["nn.backward.mflop"] = mflop
    out["nn.backward.mflop_per_s"] = mflop / backward_self if backward_self > 0 else 0.0
    for name in ("nn.train_local", "nn.forward", "nn.predict"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["nn.forward.rows"] = sum(extras("nn.forward"))

    for name in ("extract.extract_width", "extract.extract_channels", "extract.extract_depth"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    maps = extras("extract.extract_channels") + extras("extract.extract_depth")
    out["extract.distinct_share"] = len(set(maps)) / len(maps) if maps else 0.0
    out["extract.scatter_update.calls"] = calls("extract.scatter_update")
    out["extract.scatter_update.self_s"] = self_s("extract.scatter_update")
    out["extract.scatter_update.coords"] = sum(extras("extract.scatter_update"))
    out["extract.normalize.calls"] = calls("extract.normalize")
    out["extract.normalize.self_s"] = self_s("extract.normalize")

    rounds = stats["strategies.run_round"].durations if "strategies.run_round" in stats else []
    rep.round_ms = [1000.0 * d for d in rounds]
    out["strategies.run_round.calls"] = calls("strategies.run_round")
    out["strategies.run_round.self_s"] = self_s("strategies.run_round")
    evals = extras("strategies.client_eval_model")
    out["strategies.client_eval_model.calls"] = calls("strategies.client_eval_model")
    out["strategies.client_eval_model.self_s"] = self_s("strategies.client_eval_model")
    out["strategies.eval_distinct_share"] = len(set(evals)) / len(evals) if evals else 0.0

    out["metrics.model_accuracy.calls"] = calls("metrics.model_accuracy")
    out["metrics.model_accuracy.self_s"] = self_s("metrics.model_accuracy")
    out["metrics.model_accuracy.rows"] = sum(extras("metrics.model_accuracy"))

    jobs = stats["runner.run_strategy_repeat"].durations if "runner.run_strategy_repeat" in stats else [0.0]
    out["runner.run_strategy_repeat.calls"] = calls("runner.run_strategy_repeat")
    out["runner.run_strategy_repeat.self_s"] = self_s("runner.run_strategy_repeat")
    out["runner.job_max_s"] = max(jobs)
    out["runner.atomic_write_text.calls"] = calls("runner.atomic_write_text")
    out["runner.atomic_write_text.bytes"] = sum(extras("runner.atomic_write_text"))
    out["runner.atomic_write_text.self_s"] = self_s("runner.atomic_write_text")
    rep.layers = out

    # Self time by phase: a span inside a client eval or accuracy call is
    # evaluation; one inside data build, config or assignment is set-up.
    phase: list[str | None] = [None] * len(spans)
    groups: dict[str, float] = {}
    own = self_times(spans)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        inherited = phase[parent] if parent >= 0 else None
        if inherited is None and name in EVAL_ROOTS:
            inherited = "eval"
        elif inherited is None and name.startswith(SETUP_ROOTS):
            inherited = "setup"
        phase[i] = inherited
        group = span_group(name, inherited)
        groups[group] = groups.get(group, 0.0) + own[i]
    rep.groups = groups

    # The wrappers must see every call the run makes through these paths.
    n_jobs, n_eval = len(job_ids(cfg)), len(eval_rounds(cfg))
    global_evals = sum(cfg.num_clients if sid == "fedproto" else 1 for sid, _ in job_ids(cfg)) * n_eval
    expected = {
        "runner.run_strategy_repeat.calls": n_jobs,
        "strategies.run_round.calls": n_jobs * cfg.num_rounds,
        "strategies.client_eval_model.calls": n_jobs * n_eval * cfg.num_clients,
        "metrics.model_accuracy.calls": n_jobs * n_eval * cfg.num_clients + global_evals,
        "datasets.build.calls": n_jobs,
        "runner.atomic_write_text.calls": n_jobs + 2,
    }
    for name, want in expected.items():
        if out[name] != want:
            rep.problems.append(f"trace coverage: {name} = {out[name]}, expected {want}")


# ---------------------------------------------------------------------------
# reporting


def describe(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values),
            "values": values}


def end_to_end(reps: list[Rep]) -> tuple[dict, dict]:
    """(metrics at the reference speed, the same as measured on the wall clock)."""
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    speed = [REFERENCE_NOMINAL_S / r.reference_s for r in reps]
    wall = {
        "setup_s": [r.setup_s for r in reps],
        "run_s": [r.run_s for r in reps],
        "client_updates_per_s": [r.client_updates_per_s for r in reps],
    }
    scaled = {
        "setup_s": describe([v * k for v, k in zip(wall["setup_s"], speed)]),
        "run_s": describe([v * k for v, k in zip(wall["run_s"], speed)]),
        "client_updates_per_s": describe([v / k for v, k in zip(wall["client_updates_per_s"], speed)]),
        "peak_rss_mb": describe([peak_kb / 1024.0]),
    }
    return scaled, {name: describe(values) for name, values in wall.items()}


def per_layer(untraced: list[Rep], traced: list[Rep]) -> tuple[dict, list[str]]:
    """Medians of times over traced calls; counts must repeat exactly."""
    problems = []
    out: dict = {}
    for name in traced[0].layers:
        values = [r.layers[name] for r in traced]
        if name.endswith(COUNT_SUFFIXES):
            if len(set(values)) != 1:
                problems.append(f"{name} differs across traced calls of one seed: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    rounds = [ms for r in traced for ms in r.round_ms]
    out["strategies.run_round.p50_ms"] = percentile(rounds, 0.50)
    out["strategies.run_round.p99_ms"] = percentile(rounds, 0.99)
    untraced_run = statistics.median(r.run_s for r in untraced)
    out["trace.overhead_share"] = (statistics.median(r.run_s for r in traced) - untraced_run) / untraced_run
    return out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hetfed = import_hetfed()

    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    env = environment(args.seed)
    cfg_path, exceptions = load_workload(args.workload, args.seed, out_dir)
    bench = Bench(hetfed, args.workload, cfg_path, out_dir)
    try:
        warm, assigned = capture_assignments(bench)
        problems = binding_precheck(bench.cfg, assigned, exceptions)
        if problems:
            sys.exit("bench: binding-tier precheck failed:\n  " + "\n  ".join(problems))
        reps = [warm]
        pattern = (False, True) if args.trace else (False,)
        start = perf_counter()
        cycles = 0
        previous_ref = reference_s()
        while True:
            for traced in pattern:
                rep = bench.run(traced)
                ref = reference_s()
                rep.reference_s = (previous_ref + ref) / 2
                previous_ref = ref
                reps.append(rep)
            cycles += 1
            projected = (perf_counter() - start) * (cycles + 1) / cycles
            if projected > args.seconds and (cycles >= MIN_REPS or projected > TIME_CAP_S):
                break
        measured_s = perf_counter() - start
    finally:
        bench.close()

    timed = reps[1:]
    untraced = [r for r in timed if not r.traced and not r.failed_jobs]
    traced = [r for r in timed if r.traced and not r.failed_jobs]
    jobs_per_call = len(job_ids(bench.cfg))
    attempted = jobs_per_call * len(reps)
    failed = sum(len(r.failed_jobs) for r in reps)
    failures = [f"{job}: {why}" for r in reps for job, why in r.failed_jobs.items()]
    failures += [p for r in reps for p in r.problems]
    digests = sorted({r.digest for r in reps if r.digest})

    lines = [
        f"workload {args.workload}: {WORKLOADS[args.workload]}",
        f"seed {args.seed}, trace {args.trace}: {len(timed)} timed calls of run_experiment "
        f"({jobs_per_call} jobs each) in {measured_s:.1f} s, after 1 untimed warm-up call",
        "environment: " + ", ".join(f"{k} {v}" for k, v in env.items()),
        "variants: " + "; ".join(
            f"{sid} r{r} " + " ".join(f"{v}x{ids.count(v)}" for v in sorted(set(ids)))
            for (sid, r), ids in sorted(assigned.items())
        ),
    ]
    for sid, reason in exceptions.items():
        lines.append(f"single-variant exception: {sid} ({reason})")
    lines.append(f"digest: {' '.join(digests) or 'none'} (rounds_*.csv + summary.json)")
    lines.append(f"failed_share = {failed}/{attempted} jobs = {failed / attempted:.4f}")
    lines.extend(f"failure: {f}" for f in failures)

    report = {"args": vars(args), "environment": env, "notes": NOTES, "digests": digests,
              "job_digests": reps[0].job_digests, "variants": {f"{s}_r{r}": v for (s, r), v in assigned.items()},
              "exceptions": exceptions, "attempted": attempted, "failed": failed, "failures": failures}
    metrics: dict = {}
    correct = not failures and len(digests) == 1
    references = [r.reference_s for r in timed]
    lines.append(f"reference loop: median {statistics.median(references):.4f} s over {len(references)} calls "
                 f"(nominal {REFERENCE_NOMINAL_S} s)")
    report["reference_s"] = describe(references)
    if args.trace == 0 and untraced:
        e2e, wall = end_to_end(untraced)
        for name, d in e2e.items():
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": d["median"], "unit": unit}
            line = f"{name} = {d['median']:.6g} {unit} (median of {d['n']}; min {d['min']:.6g}, max {d['max']:.6g})"
            if name in wall:
                line += f" at reference speed; wall clock: median {wall[name]['median']:.6g} {unit}"
            lines.append(line)
        report["end_to_end"] = e2e
        report["end_to_end_wall"] = wall
    elif args.trace == 1 and traced and untraced:
        layers, problems = per_layer(untraced, traced)
        correct = correct and not problems
        lines.extend(f"failure: {p}" for p in problems)
        computed = {
            "nn.backward.rows": f"{layers['nn.backward.calls']} backward calls",
            "nn.backward.mflop": f"3 x estimate_flops(spec, heads) x rows, over {layers['nn.backward.rows']} rows",
            "nn.backward.mflop_per_s": "nn.backward.mflop / nn.backward.self_s",
            "extract.scatter_update.coords": f"sub-model parameters over {layers['extract.scatter_update.calls']} "
                                             "scatter calls",
            "extract.distinct_share": f"{layers['extract.extract_channels.calls'] + layers['extract.extract_depth.calls']}"
                                      " extraction calls",
            "strategies.eval_distinct_share": f"{layers['strategies.client_eval_model.calls']} eval calls",
        }
        latency = f" (inclusive, over {sum(len(r.round_ms) for r in traced)} rounds of {len(traced)} traced calls)"
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
            label = f" (computed, base {computed[name]})" if name in computed else ""
            if name.startswith("strategies.run_round.p"):
                label = latency
            lines.append(f"{name} = {value:.6g} {layer_unit(name)}{label}")
        lines.append(f"times are medians over {len(traced)} traced calls; counts repeat exactly across them")
        groups = {g: statistics.median(r.groups.get(g, 0.0) for r in traced) for g in traced[0].groups}
        total = sum(groups.values())
        lines.append("self time by group: " + ", ".join(
            f"{g} {s:.3f} s ({s / total:.0%})" for g, s in sorted(groups.items(), key=lambda kv: -kv[1])))
        report["per_layer"] = layers
        report["self_time_groups_s"] = groups
        write_spans(os.path.join(out_dir, "spans.jsonl"), bench.last_tracer)
    else:
        correct = False
    lines.extend(f"note: {n}" for n in NOTES)
    report["metrics"] = metrics
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def write_spans(path: str, tracer: Tracer) -> None:
    """Spans of the last traced call, one JSON array per line:
    [name, start, end, parent, workload, strategy, repeat, extra]."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, job, extra in tracer.spans:
            workload, sid, repeat = tracer.jobs[job] if job >= 0 else (tracer.workload, None, None)
            fh.write(json.dumps([name, start, end, parent, workload, sid, repeat, extra], default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())
