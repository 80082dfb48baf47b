"""syncopt benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload paper_session --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. One client calls
`syncopt.cli.main([...])` in this process, closed loop: each operation
starts after the previous one returned. Whole passes of the workload repeat
until the next pass would end after `--seconds`. Timings are scaled to a
reference CPU speed (see calibration.py).

--trace 0 reports the end-to-end metrics, tracing off. --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, the tracing overhead and the known-defect probes; the spans go to
`.bench_out/`. Every pass checks every output. The last line of stdout is
one JSON object: correct, attempted, failed, metrics. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import PERIOD_S, Calibration
from probes import run_probes
from spans import Tracer, self_times
from workloads import WORKLOADS, fail, run_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is timed in fresh interpreters: a few before the first pass and a
# few after each pass, so that the samples span the run rather than one
# moment of the host's load.
SETUP_FIRST, SETUP_PER_PASS = 3, 2
LAYERS = ("cli", "topology", "plant", "regulator", "protocol", "numkernel",
          "policy_iteration", "simulator")

# A fresh interpreter that imports the CLI and loads the workload's files,
# then reports ready: what a user waits for before the first verb starts.
SETUP_CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import syncopt.cli as c; "
    "[c.load_scenario(p) for p in json.load(open(sys.argv[2]))]; print('ready', flush=True)"
)
# The set-up times' calibration kernel: a fresh interpreter that imports
# numpy and nothing of the toolkit, and its reference time in seconds.
SETUP_KERNEL, SETUP_KERNEL_REF_S = "import numpy; print('ready', flush=True)", 0.15


@dataclass
class Pass:
    wall: float
    ref: float  # `wall` at the reference CPU speed (calibration.py)
    ops: list
    traced: bool
    spans: list = field(default_factory=list)


def quantile(values, q: int) -> float:
    """The q-th percentile (q a multiple of 10), interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def fresh_interpreter(code: str, *args: str) -> float:
    """Seconds until a new interpreter running `code` prints ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        rc = child.wait()
    if ready != "ready" or rc != 0:
        raise RuntimeError(f"fresh interpreter failed (exit {rc})")
    return elapsed


def setup_times(files, work: Path, repeats: int) -> list:
    """(measured, at reference speed) times until a fresh interpreter is
    ready for the first verb. Each is scaled by SETUP_KERNEL_REF_S over the
    mean time of the SETUP_KERNEL interpreters started just before and just
    after it: start-up and imports slow with the host's load differently from
    the work the pass kernels model."""
    listing = work / "setup_files.json"
    listing.write_text(json.dumps([str(f) for f in files]))
    times = []
    before = fresh_interpreter(SETUP_KERNEL)
    for _ in range(repeats):
        t = fresh_interpreter(SETUP_CHILD, str(SRC), str(listing))
        after = fresh_interpreter(SETUP_KERNEL)
        times.append((t, t * SETUP_KERNEL_REF_S * 2 / (before + after)))
        before = after
    return times


def one_pass(wl, cli, work: Path, k: int, cal, tracer=None, modules=None) -> Pass:
    out = work / f"pass{k}"
    ops = wl.ops(out)
    mark = tracer.mark() if tracer else 0
    cal.points.clear()
    # Traced passes sample the CPU speed only between operations, so that no
    # span holds sampling time.
    sampling = nullcontext() if tracer else cal.sampling()
    tracing = tracer.installed(modules) if tracer else nullcontext()
    with sampling, tracing:
        cal.sample()
        for op in ops:
            run_op(cli, op)
            if time.perf_counter() - cal.points[-1][1] >= PERIOD_S:
                cal.sample()
        cal.sample()
    for op in ops:
        op.seconds, op.ref_s = cal.timed(op.start, op.start + op.seconds)
    spans = tracer.spans[mark:] if tracer else []
    try:
        wl.check(out, ops)
    except (OSError, LookupError, ValueError, TypeError) as exc:
        for op in ops:
            fail(op, f"output check error: {exc!r}")
    shutil.rmtree(out, ignore_errors=True)
    return Pass(wall=sum(op.seconds for op in ops), ref=sum(op.ref_s for op in ops), ops=ops,
                traced=tracer is not None, spans=spans)


def timed_passes(seconds: float, min_passes: int, make_pass) -> list:
    """Run passes until the next one, at the median pass length so far,
    would end after `seconds`."""
    start = time.perf_counter()
    passes, lengths = [], []
    while True:
        t = time.perf_counter()
        passes.append(make_pass(len(passes)))
        lengths.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + statistics.median(lengths) > seconds:
            return passes


def end_to_end(wl, passes, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, timings scaled to the reference speed, and the
    same timings as measured. Latency is per pass (a whole session) or per
    operation, as the workload's `latency_unit` says; failed units are left out.
    A run holds only 4-6 sessions of `paper_session` or `wide_network`, too few
    for any percentile above the median; the tail of single `learn` calls is
    the per-layer `cli.learn_op.ms_p90`."""
    def timings(scaled: bool) -> dict:
        def f(x):
            return x.ref_s if scaled else x.seconds
        if wl.latency_unit == "operation":
            lat = [f(op) * 1e3 for p in passes for op in p.ops if op.ok]
        else:
            lat = [sum(f(op) for op in p.ops) * 1e3 for p in passes if all(op.ok for op in p.ops)]
        lat = lat or [float("nan")]
        return {
            "run_s": (statistics.median(sum(f(op) for op in p.ops) for p in passes), "s"),
            "latency_ms_p50": (statistics.median(lat), "ms"),
        }

    metrics = timings(True)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["setup_s"] = (setup_s, "s")
    return metrics, timings(False)


def layer_metrics(spans, wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    calls, total, own = {}, {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0) + s.dur
        own[s.name] = own.get(s.name, 0) + selfs[s.sid]

    def ms(name):
        return total.get(name, 0) / 1e6

    def n(name):
        return calls.get(name, 0)

    def extra(name, key):
        return [s.extra[key] for s in spans if s.name == name and key in s.extra]

    steps, dims = extra("simulator._rk4", "steps"), extra("simulator._rk4", "dim")
    iterations = sum(extra("policy_iteration.run_pi", "iterations"))
    converged = sum(extra("policy_iteration.run_pi", "converged"))
    csv_bytes = sum(extra("cli.write_trajectory_csv", "bytes"))
    csv_s = ms("cli.write_trajectory_csv") / 1e3
    module_self = {
        layer: sum(v for k, v in own.items() if k.startswith(layer + ".")) / 1e9 for layer in LAYERS
    }
    m = {
        "simulator.simulate_augmented.s": (ms("simulator.simulate_augmented") / 1e3, "s"),
        "simulator.simulate_augmented.calls": (n("simulator.simulate_augmented"), "count"),
        "simulator.simulate_network.s": (ms("simulator.simulate_network") / 1e3, "s"),
        "simulator.simulate_network.calls": (n("simulator.simulate_network"), "count"),
        "simulator.rk4_steps": (sum(steps), "count"),
        "simulator.state_dim_max": (max(dims, default=0), "count"),
        "simulator.ns_per_step": (ms("simulator._rk4") * 1e6 / sum(steps) if steps else 0.0, "ns"),
        "simulator.flops_computed": (sum(8 * s * d * d for s, d in zip(steps, dims)), "flop"),
        "cli.write_trajectory_csv.s": (csv_s, "s"),
        "cli.write_trajectory_csv.bytes": (csv_bytes, "B"),
        "cli.write_trajectory_csv.mb_per_s": (csv_bytes / 1e6 / csv_s if csv_s else 0.0, "MB/s"),
        "policy_iteration.run_pi.ms": (ms("policy_iteration.run_pi"), "ms"),
        "policy_iteration.iterations": (iterations, "count"),
        "policy_iteration.ms_per_iteration": (
            ms("policy_iteration.run_pi") / iterations if iterations else 0.0, "ms"),
        "policy_iteration.policy_evaluation.ms": (ms("policy_iteration.policy_evaluation"), "ms"),
        "policy_iteration.converged_ratio": (
            converged / n("policy_iteration.run_pi") if n("policy_iteration.run_pi") else 0.0,
            "ratio"),
        "numkernel.solve_lyapunov.ms": (ms("numkernel.solve_lyapunov"), "ms"),
        "numkernel.solve_lyapunov.calls": (n("numkernel.solve_lyapunov"), "count"),
        "numkernel.stabilize.ms": (ms("numkernel.stabilize"), "ms"),
        "numkernel.is_hurwitz.ms": (ms("numkernel.is_hurwitz"), "ms"),
        "numkernel.is_hurwitz.calls": (n("numkernel.is_hurwitz"), "count"),
        "cli.run_learn.ms": (ms("cli.run_learn"), "ms"),
        "regulator.solve_regulator.ms": (ms("regulator.solve_regulator"), "ms"),
        "regulator.solve_regulator.calls": (n("regulator.solve_regulator"), "count"),
        "protocol.design_compensator.ms": (ms("protocol.design_compensator"), "ms"),
        "protocol.build_transform.ms": (ms("protocol.build_transform"), "ms"),
        "protocol.build_augmented_plant.ms": (ms("protocol.build_augmented_plant"), "ms"),
        "protocol.initial_gains.ms": (ms("protocol.initial_gains"), "ms"),
        "plant.check_assumptions.ms": (ms("plant.check_assumptions"), "ms"),
        "plant.check_assumptions.calls": (n("plant.check_assumptions"), "count"),
        "topology.build_topology.ms": (ms("topology.build_topology"), "ms"),
        "topology.validate_topology.ms": (ms("topology.validate_topology"), "ms"),
        "cli.load_scenario.ms": (ms("cli.load_scenario"), "ms"),
        "cli.load_scenario.calls": (n("cli.load_scenario"), "count"),
        "cli.verb_self.ms": (sum(v for k, v in own.items() if k.startswith("cli.cmd_")) / 1e6, "ms"),
    }
    for verb in ("validate", "design", "learn", "simulate", "compare"):
        m[f"cli.cmd_{verb}.s"] = (ms(f"cli.cmd_{verb}") / 1e3, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (module_self[layer], "s")
    m["trace.sim_csv_share"] = (
        (module_self["simulator"] + own.get("cli.write_trajectory_csv", 0) / 1e9) / wall, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m


def median_metrics(per_pass: list) -> dict:
    return {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def run_record(args, wl) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "syncopt").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "workload": args.workload, "seed": args.seed, "variant": wl.variant,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ.get(k) for k in threads},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "platform": platform.platform(), "sizes": wl.meta,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "syncopt" / "cli.py").is_file():
        print(f"bench: no syncopt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work / "inputs")
        record = run_record(args, wl)
        print(json.dumps({"run_record": record}))
        cal = Calibration(wl.kernel)
        raw = {}
        if args.trace == 0:
            setup = setup_times(wl.files, work, SETUP_FIRST)
            from syncopt import cli

            def make(k):
                p = one_pass(wl, cli, work, k, cal)
                setup.extend(setup_times(wl.files, work, SETUP_PER_PASS))
                return p

            passes = timed_passes(args.seconds, 1, make)
            metrics, raw = end_to_end(wl, passes, statistics.median(s for _, s in setup))
            raw["setup_s"] = (statistics.median(t for t, _ in setup), "s")
        else:
            metrics, passes = traced_run(args, wl, work, cal, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):  # left while another run is using it
            work.parent.rmdir()

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if not op.ok]
    for key in sorted({op.key for op in failed}):
        op = next(op for op in failed if op.key == key)
        count = sum(f.key == key for f in failed)
        print(f"failed x{count}: {key} {op.verb} exit {op.rc}: {op.detail}")
    print(f"cpu speed over reference, median of passes: "
          f"{statistics.median(p.ref / p.wall for p in passes):.3f}")
    for name, (value, unit) in metrics.items():
        measured = f"  (measured {raw[name][0]:.6g})" if name in raw else ""
        print(f"{name:<40} {value:>16.6g} {unit}{measured}")
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_run(args, wl, work: Path, cal, record: dict):
    """Alternate untraced and traced passes; per-layer metrics from the
    traced ones, overhead from both, probes afterwards (untimed)."""
    from syncopt import cli, numkernel, plant, policy_iteration, protocol, regulator, simulator, topology

    modules = {"cli": cli, "topology": topology, "plant": plant, "regulator": regulator,
               "protocol": protocol, "numkernel": numkernel,
               "policy_iteration": policy_iteration, "simulator": simulator}
    tracer = Tracer()

    def make(k):
        traced = k % 2 == 1
        return one_pass(wl, cli, work, k, cal, tracer if traced else None, modules)

    passes = timed_passes(args.seconds, 2, make)
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics = median_metrics([layer_metrics(p.spans, p.wall) for p in traced])
    learn = [op.seconds * 1e3 for p in plain for op in p.ops if op.ok and op.verb == "learn"]
    metrics["cli.learn_op.ms_p50"] = (statistics.median(learn) if learn else 0.0, "ms")
    metrics["cli.learn_op.ms_p90"] = (quantile(learn, 90) if learn else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.ref for p in traced) / statistics.median(p.ref for p in plain), "ratio")
    for name, count in run_probes(cli, work).items():
        metrics[name] = (count, "count")
    tracer.dump(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json", record)
    return metrics, passes


if __name__ == "__main__":
    sys.exit(main())
