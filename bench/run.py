#!/usr/bin/env python3
"""quadstab benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload audit|oracle|residual --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's src/ directory, and outputs (result CSVs, span dumps) go to
.bench_out/ at the checkout root.  Each workload is a closed loop: one
process, one caller, ops issued back to back in whole rounds.

--trace 0 measures the end-to-end metrics.  --trace 1 runs every round
twice, once untraced and once with spans installed around the library's
public functions, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON report with
the environment, input and answer digests, failures and the full metric
set.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# one compute thread: a closed loop with no more threads than cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("audit", "oracle", "residual")
SETUP_REPEATS = 9
REPLAY_POINTS = 50
REPLAY_MAPPINGS = 64
REPLAY_UNITARIES = 400


def import_program():
    """Import quadstab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "quadstab", "__init__.py")):
        sys.exit(f"error: no quadstab sources under {SRC}")
    sys.path.insert(0, SRC)
    import quadstab
    if not os.path.abspath(quadstab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported quadstab from {quadstab.__file__}, not {SRC}")
    return quadstab


class Context:
    def __init__(self, workload: str):
        self.outdir = os.path.join(OUT, workload)
        os.makedirs(self.outdir, exist_ok=True)
        for name in os.listdir(self.outdir):
            if name.endswith(".csv"):
                os.unlink(os.path.join(self.outdir, name))


def load(workload: str, seed: int):
    import_program()
    wl = importlib.import_module(workload)
    ctx = Context(workload)
    pool = wl.generate(seed)
    wl.warmup(ctx)
    return wl, ctx, pool


def setup_env() -> dict:
    """Environment of the set-up children.  Bytecode is cached next to the
    sources (__pycache__ under src/ and bench/, ignored by git) whatever the
    caller's PYTHONDONTWRITEBYTECODE or PYTHONPYCACHEPREFIX say, so every
    timed sample starts from the same cache state: compiled, as an installed
    package would be."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def setup_once(workload: str, seed: int, env: dict) -> float:
    """Process start until the first op is ready, in one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up run failed (exit {code})")
    return elapsed


class SetupSampler:
    """Set-up time samples spread over the measured loop.

    One untimed priming run writes the bytecode cache.  Called between
    rounds, the sampler takes sample i once i/repeats of `seconds` have
    passed, so the median covers the whole run rather than one moment of
    it; finish() takes any samples the loop left over."""

    def __init__(self, workload: str, seed: int, repeats: int, seconds: float):
        self.workload, self.seed, self.repeats, self.seconds = workload, seed, repeats, seconds
        self.env = setup_env()
        self.times: list[float] = []
        setup_once(workload, seed, self.env)

    def _sample(self) -> None:
        self.times.append(setup_once(self.workload, self.seed, self.env))

    def __call__(self, elapsed: float) -> None:
        if len(self.times) < self.repeats and elapsed >= len(self.times) * self.seconds / self.repeats:
            self._sample()

    def finish(self) -> list[float]:
        while len(self.times) < self.repeats:
            self._sample()
        return self.times


# ---------------------------------------------------------------------------
# environment


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def environment() -> dict:
    import numpy as np
    import oracle

    cpu = None
    info = _read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if level and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _size_bytes(_read(os.path.join(base, entry, "size")))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    q, d = oracle.LARGE
    cols = q**d
    # gf_rref sees at most the basis (<= cols rows) plus one merge of max(4 cols, 512) rows
    rref_bytes = (cols + max(4 * cols, 512)) * cols * 8
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache_bytes": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "largest_oracle_query": {
            "group": f"F_{q}^{d}", "columns": cols,
            "rref_input_bytes_computed": rref_bytes,
            "vs_L2": rref_bytes / caches["L2"] if caches.get("L2") else None,
            "vs_L3": rref_bytes / caches["L3"] if caches.get("L3") else None,
        },
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl, outcomes, setup_times) -> tuple[dict, dict]:
    from core import tail

    lat_ms = [o.latency_s * 1e3 for o in outcomes]
    busy = sum(o.latency_s for o in outcomes)
    work = sum(o.work for o in outcomes)
    tail_ms, pct = tail(lat_ms)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "work_per_s": (work / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"tail_percentile": pct, "ops_total": len(outcomes), "work_total": work,
        "work_unit": wl.WORK_UNIT, "setup_samples_s": setup_times}


def replay(wl, ops, seed: int) -> dict:
    """Direct calls to public functions on the workload's own inputs."""
    import numpy as np
    from quadstab import algebra

    out = {"mappings.eval_us_per_point": 0.0, "algebra.unitary_us": 0.0}
    fs = wl.mappings_of(ops)[:REPLAY_MAPPINGS]
    if fs:
        rng = np.random.default_rng([seed, 0xE7A1])
        pts = [(f, [f.domain.random(rng) for _ in range(REPLAY_POINTS)]) for f in fs]
        t0 = time.perf_counter()
        for f, xs in pts:
            for x in xs:
                f(x)
        out["mappings.eval_us_per_point"] = (time.perf_counter() - t0) / (len(fs) * REPLAY_POINTS) * 1e6
    ks = wl.unitary_orders(ops)
    if ks:
        t0 = time.perf_counter()
        for k in ks:
            for i in range(REPLAY_UNITARIES):
                algebra.sample_unitary(k, seed=seed + i)
        out["algebra.unitary_us"] = (time.perf_counter() - t0) / (len(ks) * REPLAY_UNITARIES) * 1e6
    return out


def per_layer(tracer, outcomes, overhead, replayed) -> tuple[dict, dict]:
    names = tracer.by_name()

    def calls(*ns):
        return sum(names[n]["calls"] for n in ns if n in names)

    def incl(*ns):
        return sum(names[n]["s"] for n in ns if n in names)

    def self_s(*ns):
        return sum(names[n]["self_s"] for n in ns if n in names)

    def counted(key, *ns):
        return sum(names[n]["counts"].get(key, 0) for n in ns if n in names)

    def hot(name, key="s"):
        return tracer.hot.get(name, {}).get(key, 0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    fits = ("fit_power_amplitude", "fit_constant_level")
    finite_top = ("spaces_equal", "nullspace_basis", "constraints_hold")
    probes = counted("probes", "stabilize")
    plans = [p for o in outcomes for p in o.op.params.get("plans", [])]
    rows = sum(o.op.params.get("rows", 0) for o in outcomes if "plans" in o.op.params)
    samples = sum(o.work for o in outcomes if o.op.kind == "characterize")
    scenarios = calls("run_scenario")
    metrics = {
        "harness.validate_ms": (per(incl("validate_config"), scenarios, 1e3), "ms"),
        "harness.self_ms": (per(self_s("run_scenario"), scenarios, 1e3), "ms"),
        "stability.fit_ms": (per(incl(*fits), calls(*fits), 1e3), "ms"),
        "stability.iterate_us_per_probe": (per(hot("hyers_iterate"), probes, 1e6), "us"),
        "stability.stabilize_self_ms": (per(self_s("stabilize"), calls("stabilize"), 1e3), "ms"),
        "stability.bound_us_per_probe": (per(hot("probe_bound"), probes, 1e6), "us"),
        "stability.covariance_ms": (per(incl("verify_unitary_covariance"),
                                        calls("verify_unitary_covariance"), 1e3), "ms"),
        "stability.iterations_per_probe": (per(counted("iterations", "stabilize"), probes), "count"),
        "stability.converged_ratio": (per(counted("converged", "stabilize"), probes), "ratio"),
        "mappings.twisted_us_per_tuple": (per(hot("approximate_remainder"),
                                              hot("approximate_remainder", "calls"), 1e6), "us"),
        "mappings.residual_us_per_tuple": (per(hot("equation_residual"),
                                               hot("equation_residual", "calls"), 1e6), "us"),
        "mappings.eval_us_per_point": (replayed["mappings.eval_us_per_point"], "us"),
        "mappings.evals_computed": (hot("approximate_remainder", "evals")
                                    + hot("equation_residual", "evals"), "count"),
        "algebra.norm_eval_us": (per(hot("norm_eval"), hot("norm_eval", "calls"), 1e6), "us"),
        "algebra.unitary_us": (replayed["algebra.unitary_us"], "us"),
        "finite.verify_ns_per_row": (per(self_s(*finite_top), rows, 1e9), "ns"),
        "finite.rref_ms": (per(incl("gf_rref"), calls("gf_rref"), 1e3), "ms"),
        "finite.rref_bytes_computed": (counted("bytes", "gf_rref"), "B"),
        "finite.densify_us_per_row": (per(incl("densify"), counted("rows", "densify"), 1e6), "us"),
        "finite.rows_planned": (rows, "count"),
        "finite.subsample_share": (per(plans.count("subsample"), len(plans)), "ratio"),
        "finite.rejected": (sum(1 for o in outcomes if o.answer == "rejected"), "count"),
        "finite.characterize_us_per_sample": (per(incl("inner_product_characterization"),
                                                  samples, 1e6), "us"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    detail = {
        "calls": {n: s["calls"] for n, s in names.items()},
        "hot_calls": {n: h["calls"] for n, h in tracer.hot.items()},
        "probes": probes,
    }
    return metrics, detail


BOUND_LEAVES = ("probe_bound", "closed_form_bounds", "series_bound_forward",
                "series_bound_backward", "series_bound_forward_p", "series_bound_backward_p")


def cost_shares(tracer, wall: float) -> dict:
    """Where the traced wall time goes, as disjoint shares: iteration, control
    fitting, unitary covariance (with its own iterations), the rest of the
    stabilize loop, bounds, harness validation and bookkeeping, and other."""
    names = tracer.by_name()
    cov = tracer.inside("verify_unitary_covariance")
    outside = [r for r in tracer.spans if r["id"] not in cov]

    def hot(recs, *leaves):
        return sum(r["hot"][n][1] for r in recs for n in leaves if n in r["hot"])

    def incl(*span_names):
        return sum(r["end"] - r["start"] for r in outside if r["name"] in span_names)

    stabilize = [r for r in outside if r["name"] == "stabilize"]
    parts = {
        "iterate": hot(outside, "hyers_iterate"),
        "fit": incl("fit_power_amplitude", "fit_constant_level"),
        "covariance": names["verify_unitary_covariance"]["s"] if cov else 0.0,
        "stabilize_rest": incl("stabilize") - hot(stabilize, "hyers_iterate", "probe_bound"),
        "bounds": hot(outside, *BOUND_LEAVES),
        "harness": incl("validate_config")
        + (names["run_scenario"]["self_s"] if "run_scenario" in names else 0.0),
    }
    parts["other"] = wall - sum(parts.values())
    return {k: v / wall for k, v in parts.items()}


# ---------------------------------------------------------------------------
# main


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    from core import measure, measure_paired, sha256_json

    wl, ctx, pool = load(workload, seed)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(),
              "inputs_sha256": sha256_json([[op.id, op.kind, op.params] for rnd in pool for op in rnd])}
    if trace:
        from spans import Tracer

        tracer = Tracer()
        untraced, traced, untraced_walls, traced_walls, rounds = measure_paired(
            wl, pool, ctx, seconds, tracer)
        # round 0's untraced pass comes first, for the answer digest below
        outcomes = untraced + traced
        untraced_wall, traced_wall = sum(untraced_walls), sum(traced_walls)
        # a median over rounds, so the one cold first pass does not set it
        overhead = statistics.median(t / u for t, u in zip(traced_walls, untraced_walls)) - 1.0
        replayed = replay(wl, [o.op for o in traced], seed)
        metrics, detail = per_layer(tracer, traced, overhead, replayed)
        layers = tracer.self_times(traced_wall)
        report["trace"] = {
            "rounds": rounds, "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "self_s": layers, "self_sum_s": sum(layers.values()), **detail,
            "spans_file": write_spans(workload, seed, tracer),
        }
        if workload == "audit":
            report["trace"]["cost_shares"] = cost_shares(tracer, traced_wall)
        report["rounds"] = 2 * rounds
    else:
        sampler = SetupSampler(workload, seed, setup_repeats, seconds)
        outcomes, wall, rounds = measure(wl, pool, ctx, seconds=seconds, between=sampler)
        metrics, stats = end_to_end(wl, outcomes, sampler.finish())
        report.update(stats, rounds=rounds, wall_s=wall)
    # round 0 always runs first and whole, so its answers are comparable across runs
    report["answers_sha256"] = sha256_json(
        [[o.op.id, o.answer, o.error] for o in outcomes[:len(pool[0])]])
    failures = [{"op": o.op.id, "error": o.error} for o in outcomes if o.error]
    defect_ops = wl.known_defects(seed) if hasattr(wl, "known_defects") else []
    defects = [{"op": op.id, "error": err} for op in defect_ops
               if (err := wl.run_defect(op, ctx)) is not None]
    report["failures"] = failures[:50]
    report["known_defects"] = defects
    failed_ratio = (len(failures) + len(defects)) / (len(outcomes) + len(defect_ops))
    if not trace:
        report["end_to_end"] = named_by_unit(wl, metrics, failed_ratio)
    report["failed_ratio"] = failed_ratio
    return {"report": report, "metrics": metrics, "attempted": len(outcomes),
            "failed": len(failures)}


def named_by_unit(wl, metrics, failed_ratio) -> dict:
    """All eight end-to-end metrics under their per-workload names; the
    throughput of the other workloads' units does not apply (None)."""
    out = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items() if name != "work_per_s"}
    for unit in ("probes", "rows", "tuples"):
        value = metrics["work_per_s"][0] if unit == wl.WORK_UNIT else None
        out[f"{unit}_per_s"] = {"value": value, "unit": "1/s"}
    out["failed_ratio"] = {"value": failed_ratio, "unit": "ratio"}
    return out


def write_spans(workload: str, seed: int, tracer) -> str:
    path = os.path.join(OUT, f"spans-{workload}-{seed}.json")
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate and warm up, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        load(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    shown = res["report"].get("end_to_end") or {
        name: {"value": v, "unit": u} for name, (v, u) in res["metrics"].items()}
    for name, m in shown.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:36s} {value:>14s} {m['unit']}")
    print(json.dumps({"report": res["report"]}, default=str))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
