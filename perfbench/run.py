"""Cold-CLI benchmark of the nmqfi engine.

Run from the root of a source checkout, for example

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 30 --trace 0

Every job is a cold `python -m nmqfi.cli <subcommand> --config F --out O`
process with PYTHONPATH=src, started only after the previous one exited
(closed loop, one client), with BLAS/OpenMP threads pinned to 1 and
NMQFI_THREADS unset. The seed generates the workload's scenario files and
shuffles job order. Each distinct job's output is checked once, outside
the timed loop, against the modal oracle (perfbench/checks.py); repeats
must reproduce it byte for byte.

--trace 0 reports the end-to-end metrics:
  setup_s      median cold spawn -> validated config (import nmqfi.cli,
               load_config on one of the workload's files, exit)
  jobs_per_s   jobs that exited 0 and passed their check / summed job wall
  job_p50_s    geometric mean over distinct jobs of each job's median wall
  job_p90_s    90th percentile of all job wall samples of the run
  peak_rss_mb  largest peak RSS of any job process (os.wait4)
Each timed job is followed, in turn, by a set-up sample or by a cold
reference process (REF_CODE; it never imports nmqfi). The time metrics are
given at a nominal host speed: every time of the run, set-up included, is
multiplied by REF_NOMINAL_S / (median reference wall). The shared 2-core
host the benchmark was built on runs 10-40 % faster or slower for minutes
at a time, and cold jobs, set-up and the reference slow down together; the
scaling takes most of that out of the figures, while a change to the
engine still moves them in full. The unscaled figures are kept in the
result file.
--trace 1 runs each job once untraced and once through perfbench/tracer.py
and reports the per-layer metrics: layer times as shares of the traced
wall time, work counts for one pass over the jobs, oracle errors, and the
tracing overhead. Cadence optima that fall short of the dense oracle scan
by more than checks.SHORTFALL_TOL are listed and counted in
sequential.shortfalls; they are a known optimizer defect, not failed jobs.

The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record is written to
.perfbench/results/. Without the engine sources (src/nmqfi) or the
shipped scenarios in the working directory the script exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
import jobs as jobs_mod

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 120.0
SETUP_CODE = ("import sys, nmqfi.cli\n"
              "from nmqfi.config import load_config\n"
              "load_config(sys.argv[1])\n")
# Host-speed reference: interpreter start, the engine's third-party imports,
# then pure-Python, small-array and large-array work, the mix the three
# workloads spend their time in. It writes the time of its work part to
# argv[1] (kept in the result file). REF_NOMINAL_S is about its cold wall
# time on the baseline host, a 2-core x86-64 VM.
REF_CODE = ("import sys, time\n"
            "import jsonschema, numpy\n"
            "t0 = time.perf_counter()\n"
            "s = 0.0\n"
            "for i in range(150000): s += (i * 0.5) % 7.0\n"
            "x = numpy.zeros(2048)\n"
            "for i in range(1500):\n"
            "    x = numpy.cos(x * 0.3 + 1.0) * 0.5 + x[::-1] * 0.1\n"
            "y = numpy.ones((256, 1024))\n"
            "for i in range(15): y = numpy.sin(y) * 0.5 + 0.1\n"
            "open(sys.argv[1], 'w').write(repr(time.perf_counter() - t0))\n")
REF_NOMINAL_S = 0.35
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("cli", "config", "bath", "response", "probe", "metrology",
          "sequential", "correlation", "quad")
# ns_per_mode_step is also reported binned by bath size (upper bin edges).
MODE_BINS = (64, 256, 1024)
REFINE = 4            # solve_response's internal grid refinement factor

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# Per-layer times are shares (%) of the traced jobs' summed wall time, so a
# layer a workload never calls reads 0 % rather than a constant time.
PER_LAYER = [
    ("startup.import_s", "s", "lower"),
    ("startup.pct", "%", "lower"),
    *[(f"{layer}.self.pct", "%", "lower") for layer in LAYERS],
    ("config.load_config.pct", "%", "lower"),
    ("config.load_config.calls", "count", "lower"),
    ("cli.write.pct", "%", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("bath.discretize.pct", "%", "lower"),
    ("bath.moments.calls", "count", "lower"),
    ("response.solve_response.pct", "%", "lower"),
    ("response.solve_response.calls", "count", "lower"),
    ("response.mode_steps", "count", "lower"),
    ("response.ns_per_mode_step", "ns", "lower"),
    ("response.g_points", "count", "lower"),
    ("response.g_max_err", "abs", "lower"),
    ("probe.displacement.pct", "%", "lower"),
    ("probe.displacement.calls", "count", "lower"),
    ("probe.noise_term.pct", "%", "lower"),
    ("probe.noise_term.calls", "count", "lower"),
    ("probe.covariance_snapshot.self.pct", "%", "lower"),
    ("probe.n_b_max_err", "abs", "lower"),
    ("metrology.qfi.pct", "%", "lower"),
    ("metrology.simulate_estimation.pct", "%", "lower"),
    ("metrology.mc_draws", "count", "lower"),
    ("sequential.optimize_tau.pct", "%", "lower"),
    ("sequential.optimize_tau.calls", "count", "lower"),
    ("sequential.seq_qfi.pct", "%", "lower"),
    ("sequential.seq_qfi.calls", "count", "lower"),
    ("sequential.seq_qfi_per_optimize", "count", "lower"),
    ("sequential.step_noise_variance.pct", "%", "lower"),
    ("sequential.step_noise_variance.calls", "count", "lower"),
    ("sequential.xi_and_c.pct", "%", "lower"),
    ("sequential.xi_and_c.calls", "count", "lower"),
    ("sequential.scan_gap", "ratio", "lower"),
    ("sequential.shortfalls", "count", "lower"),
    ("correlation.bath_correlation.pct", "%", "lower"),
    ("correlation.bath_correlation.calls", "count", "lower"),
    ("quad.calls", "count", "lower"),
    ("quad.nodes", "count", "lower"),
    ("quad.useful_node_ratio", "ratio", "higher"),
    ("quad.at_cap", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.accounted.pct", "%", "higher"),
]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("NMQFI_THREADS", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[int, float, float, int]:
    """Run argv to exit; return (start ns, wall s, peak RSS MB, exit code).

    The child is reaped with os.wait4 so its own peak RSS is read; a child
    still running after JOB_TIMEOUT_S is killed and reported as -9.
    """
    with open(log, "wb") as err:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = (time.perf_counter_ns() - t0) / 1e9
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return t0, wall, usage.ru_maxrss / 1024.0, code


@dataclass
class Sample:
    """One cold job process."""

    job: str
    traced: bool
    wall_s: float
    rss_mb: float
    problem: str = ""
    spans: dict | None = None
    t_spawn: int = 0


class Runner:
    """Runs a workload's jobs as cold processes and keeps their samples."""

    def __init__(self, job_list, work: Path):
        self.jobs = {job.name: job for job in job_list}
        self.work = work
        self.env = child_env()
        self.samples: list[Sample] = []
        self.setup_walls: list[float] = []
        self.ref_walls: list[float] = []
        self.ref_work: list[float] = []
        self.first_output: dict[str, str] = {}
        for job in job_list:
            (work / f"{job.name}.json").write_text(json.dumps(job.config))

    def run(self, name: str, traced: bool) -> Sample:
        job = self.jobs[name]
        out = self.work / f"{name}.out"
        spans_path = self.work / f"{name}.spans.json"
        for stale in (out, spans_path):
            stale.unlink(missing_ok=True)
        cli = job.argv(str(self.work / f"{name}.json"), str(out))
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path),
                    name, *cli]
        else:
            argv = [sys.executable, "-m", "nmqfi.cli", *cli]
        t0, wall, rss, code = spawn(argv, self.env, self.work / "stderr.log")
        sample = Sample(name, traced, wall, rss, t_spawn=t0)
        if wall >= JOB_TIMEOUT_S:
            sample.problem = f"timed out after {JOB_TIMEOUT_S:g} s"
        elif code != 0:
            lines = (self.work / "stderr.log").read_text(
                errors="replace").strip().splitlines()
            sample.problem = f"exit code {code}: {lines[-1] if lines else ''}"
        else:
            text = out.read_text()
            first = self.first_output.setdefault(name, text)
            if text != first:
                sample.problem = "output differs from the job's first run"
            if traced:
                sample.spans = json.loads(spans_path.read_text())
        self.samples.append(sample)
        return sample

    def setup_sample(self, name: str) -> float:
        """Cold spawn -> validated config time on job `name`'s file."""
        cfg = self.work / f"{name}.json"
        _, wall, _, code = spawn([sys.executable, "-c", SETUP_CODE, str(cfg)],
                                 self.env, self.work / "stderr.log")
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
        return wall

    def reference(self) -> None:
        """Time one cold host-speed reference process (isolated mode, so
        nothing of the checkout is on its path)."""
        out = self.work / "reference.out"
        _, wall, _, code = spawn([sys.executable, "-I", "-c", REF_CODE,
                                  str(out)], self.env, self.work / "stderr.log")
        if code != 0:
            raise RuntimeError(f"reference process exited with code {code}")
        self.ref_walls.append(wall)
        self.ref_work.append(float(out.read_text()))

    def closed_loop(self, rng: random.Random, seconds: float,
                    traced_pairs: bool) -> tuple[float, int]:
        """Run whole shuffled passes over the jobs for about `seconds`.

        A pass runs every distinct job once (twice in trace mode: untraced
        and traced, in alternating order), so each pass has the same mix.
        Outside trace mode each job is followed by a reference process or
        a set-up sample, in turn, so both span the loop like the jobs.
        Passes continue while the next is expected to end within half a
        pass of the budget. Returns (wall seconds, passes).
        """
        names = sorted(self.jobs)
        t_start = time.perf_counter()
        passes = 0
        while True:
            rng.shuffle(names)
            for i, name in enumerate(names):
                if traced_pairs:
                    for traced in ((False, True) if i % 2 else (True, False)):
                        self.run(name, traced)
                else:
                    self.run(name, False)
                    if len(self.samples) % 2:
                        self.reference()
                    else:
                        self.setup_walls.append(self.setup_sample(name))
            passes += 1
            elapsed = time.perf_counter() - t_start
            if elapsed + 0.5 * elapsed / passes > seconds:
                return elapsed, passes


def check_outputs(runner: Runner) -> dict:
    """Check each distinct job's first output; mark failing samples."""
    sys.path.insert(0, str(ROOT / "src"))
    results = {}
    for name, text in sorted(runner.first_output.items()):
        results[name] = checks.check(runner.jobs[name], text)
    for s in runner.samples:
        res = results.get(s.job)
        if not s.problem and res is not None and not res.ok:
            s.problem = "; ".join(res.problems)
    return results


def end_to_end_metrics(runner: Runner, speed: float) -> dict:
    """End-to-end metrics; every time is multiplied by `speed`."""
    ok = [s for s in runner.samples if not s.problem]
    per_job = defaultdict(list)
    for s in runner.samples:
        per_job[s.job].append(s.wall_s * speed)
    medians = [statistics.median(v) for v in per_job.values()]
    all_walls = [w for v in per_job.values() for w in v]
    return {
        "setup_s": statistics.median(runner.setup_walls) * speed,
        "jobs_per_s": len(ok) / sum(all_walls),
        "job_p50_s": statistics.geometric_mean(medians),
        "job_p90_s": statistics.quantiles(all_walls, n=10,
                                          method="inclusive")[8],
        "peak_rss_mb": max(s.rss_mb for s in runner.samples),
    }


def _span_times(spans: dict):
    """Per span: (name, inclusive ns, self ns, parent name or None)."""
    names, recs = spans["names"], spans["spans"]
    child = [0] * len(recs)
    for idx, start, end, parent in recs:
        if parent >= 0:
            child[parent] += end - start
    for i, (idx, start, end, parent) in enumerate(recs):
        yield (names[idx], end - start, end - start - child[i],
               names[recs[parent][0]] if parent >= 0 else None)


def _mode_count(config: dict) -> int:
    bath = config.get("bath", {})
    if "continuum" in bath:
        return int(bath["continuum"]["n_modes"])
    return len(bath.get("modes", []))


def _mode_steps(config: dict) -> int:
    """Work of solve_response: modes x internal steps (every benchmark
    scenario sets grid.n_steps)."""
    return _mode_count(config) * config["grid"]["n_steps"] * REFINE


def per_layer_metrics(runner: Runner, results: dict) -> tuple[dict, dict]:
    """Per-layer metrics plus the detail record (bins, layer shares)."""
    traced = [s for s in runner.samples if s.traced and s.spans]
    incl = defaultdict(float)          # ns over every traced sample
    self_ns = defaultdict(float)
    layer_self = defaultdict(float)
    wall_ns = startup_ns = 0.0
    startups = []
    bins = defaultdict(lambda: [0.0, 0])
    for s in traced:
        wall_ns += s.wall_s * 1e9
        start = s.spans["t_imported"] - s.t_spawn
        startup_ns += start
        startups.append(start / 1e9)
        solve = 0
        for name, inc, own, _ in _span_times(s.spans):
            incl[name] += inc
            self_ns[name] += own
            layer_self[name.split(".")[0]] += own
            if name == "response.solve_response":
                solve += inc
        config = runner.jobs[s.job].config
        steps = _mode_steps(config)
        if steps:
            modes = _mode_count(config)
            edge = next((b for b in MODE_BINS if modes <= b), MODE_BINS[-1])
            bins[edge][0] += solve
            bins[edge][1] += steps

    # Work counts: one pass, i.e. the first traced sample of each job.
    counts = defaultdict(float)
    firsts = {}
    for s in traced:
        firsts.setdefault(s.job, s)
    for name, s in firsts.items():
        job = runner.jobs[name]
        for span, _, _, parent in _span_times(s.spans):
            counts[span] += 1
            if span == "sequential.seq_qfi" and parent == \
                    "sequential.optimize_tau":
                counts["seq_qfi_in_optimize"] += 1
        for key, val in s.spans["counters"].items():
            counts[key] += val
        counts["mode_steps"] += _mode_steps(job.config)
        if job.subcommand == "estimate":
            opts = job.config.get("options", {})
            counts["mc_draws"] += (opts.get("nu", 100)
                                   * opts.get("replications", 2000))
        counts["bytes_out"] += len(runner.first_output[name].encode())

    def pct(ns: float) -> float:
        return 100.0 * ns / wall_ns if wall_ns else 0.0

    pairs = defaultdict(dict)
    for s in runner.samples:
        if not s.problem:
            pairs[s.job].setdefault(s.traced, []).append(s.wall_s)
    plain = sum(statistics.median(v[False]) for v in pairs.values()
                if True in v and False in v)
    with_trace = sum(statistics.median(v[True]) for v in pairs.values()
                     if True in v and False in v)
    shortfalls = [sf for r in results.values() for _, sf in r.shortfalls]
    total_bin = [sum(v[0] for v in bins.values()),
                 sum(v[1] for v in bins.values())]
    optimizes = counts["sequential.optimize_tau"]
    m = {
        "startup.import_s": statistics.median(startups) if startups else 0.0,
        "startup.pct": pct(startup_ns),
        **{f"{layer}.self.pct": pct(layer_self[layer]) for layer in LAYERS},
        "config.load_config.pct": pct(incl["config.load_config"]),
        "config.load_config.calls": counts["config.load_config"],
        "cli.write.pct": pct(incl["cli._write_csv"] + incl["cli._write_json"]),
        "cli.bytes_out": counts["bytes_out"],
        "bath.discretize.pct": pct(incl["bath.discretize"]),
        "bath.moments.calls": counts["bath.moments"],
        "response.solve_response.pct": pct(incl["response.solve_response"]),
        "response.solve_response.calls": counts["response.solve_response"],
        "response.mode_steps": counts["mode_steps"],
        "response.ns_per_mode_step": (total_bin[0] / total_bin[1]
                                      if total_bin[1] else 0.0),
        "response.g_points": counts["response.g_points"],
        "response.g_max_err": max((r.g_err for r in results.values()),
                                  default=0.0),
        "probe.displacement.pct": pct(incl["probe.displacement"]),
        "probe.displacement.calls": counts["probe.displacement"],
        "probe.noise_term.pct": pct(incl["probe.noise_term"]),
        "probe.noise_term.calls": counts["probe.noise_term"],
        "probe.covariance_snapshot.self.pct":
            pct(self_ns["probe.covariance_snapshot"]),
        "probe.n_b_max_err": max((r.n_b_err for r in results.values()),
                                 default=0.0),
        "metrology.qfi.pct": pct(incl["metrology.qfi_best_state"]
                                 + incl["metrology.qfi_aligned"]
                                 + incl["metrology.qfi_general"]),
        "metrology.simulate_estimation.pct":
            pct(incl["metrology.simulate_estimation"]),
        "metrology.mc_draws": counts["mc_draws"],
        "sequential.optimize_tau.pct": pct(incl["sequential.optimize_tau"]),
        "sequential.optimize_tau.calls": optimizes,
        "sequential.seq_qfi.pct": pct(incl["sequential.seq_qfi"]),
        "sequential.seq_qfi.calls": counts["sequential.seq_qfi"],
        "sequential.seq_qfi_per_optimize":
            counts["seq_qfi_in_optimize"] / optimizes if optimizes else 0.0,
        "sequential.step_noise_variance.pct":
            pct(incl["sequential.step_noise_variance"]),
        "sequential.step_noise_variance.calls":
            counts["sequential.step_noise_variance"],
        "sequential.xi_and_c.pct": pct(incl["sequential.xi_and_c"]),
        "sequential.xi_and_c.calls": counts["sequential.xi_and_c"],
        "sequential.scan_gap": max(shortfalls, default=0.0),
        "sequential.shortfalls": sum(sf > checks.SHORTFALL_TOL
                                     for sf in shortfalls),
        "correlation.bath_correlation.pct":
            pct(incl["correlation.bath_correlation"]),
        "correlation.bath_correlation.calls":
            counts["correlation.bath_correlation"],
        "quad.calls": counts["quad.calls"],
        "quad.nodes": counts["quad.nodes"],
        "quad.useful_node_ratio": (counts["quad.final_nodes"]
                                   / counts["quad.nodes"]
                                   if counts["quad.nodes"] else 0.0),
        "quad.at_cap": counts["quad.at_cap"],
        "trace.overhead_ratio": with_trace / plain if plain else 0.0,
        "trace.accounted.pct": pct(startup_ns + sum(layer_self.values())),
    }
    detail = {
        "ns_per_mode_step_by_modes": {
            f"le{edge}": (v[0] / v[1] if v[1] else None)
            for edge, v in sorted(bins.items())},
        "layer_share_pct": dict(
            sorted({"startup": pct(startup_ns),
                    **{layer: pct(layer_self[layer]) for layer in LAYERS}
                    }.items(), key=lambda kv: -kv[1])),
        "function_self_pct": dict(sorted(
            ((k, pct(v)) for k, v in self_ns.items()),
            key=lambda kv: -kv[1])[:15]),
        "traced_samples": len(traced),
    }
    return m, detail


def environment(args, load_start) -> dict:
    from importlib import metadata

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nmqfi").glob("*.py")):
        digest.update(path.read_bytes())
    env = child_env()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "openblas": openblas,
        "threads": {var: env.get(var) for var in
                    (*THREAD_VARS, "NMQFI_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="workloads:\n" + "\n".join(
            f"  {k}: {v}" for k, v in jobs_mod.WORKLOADS.items()))
    parser.add_argument("--workload", required=True,
                        choices=sorted(jobs_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="generates the scenarios and the job order")
    parser.add_argument("--seconds", type=float, required=True,
                        help="target length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "from traced runs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/nmqfi/cli.py", "scenarios")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: run from the root of an nmqfi source checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    rng = random.Random(args.seed)
    job_list = jobs_mod.generate(args.workload, rng, ROOT / "scenarios")
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(job_list, work)
        # The first process compiles the engine's bytecode cache, which
        # every later one finds in place, as with an installed package.
        runner.setup_sample(job_list[0].name)
        wall, passes = runner.closed_loop(rng, args.seconds,
                                          traced_pairs=bool(args.trace))
        results = check_outputs(runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics, detail = per_layer_metrics(runner, results)
        spec = PER_LAYER
    else:
        ref_median = statistics.median(runner.ref_walls)
        speed = REF_NOMINAL_S / ref_median
        metrics = end_to_end_metrics(runner, speed)
        detail = {"reference": {"median_s": ref_median,
                                "speed_factor": speed,
                                "samples": len(runner.ref_walls)},
                  "unscaled": end_to_end_metrics(runner, 1.0)}
        spec = END_TO_END
    failed = sum(1 for s in runner.samples if s.problem)
    shortfalls = {f"{name} {label}": sf for name, r in results.items()
                  for label, sf in r.shortfalls}
    record = {
        "environment": environment(args, load_start),
        "metrics": metrics,
        "detail": detail,
        "setup_samples_s": runner.setup_walls,
        "reference_walls_s": runner.ref_walls,
        "reference_work_s": runner.ref_work,
        "loop": {"wall_s": wall, "passes": passes,
                 "samples": len(runner.samples),
                 "distinct_jobs": len(runner.jobs)},
        "jobs": {name: {"subcommand": runner.jobs[name].subcommand,
                        "walls_s": [s.wall_s for s in runner.samples
                                    if s.job == name and not s.traced],
                        "problems": sorted({s.problem for s in runner.samples
                                            if s.job == name and s.problem})}
                 for name in sorted(runner.jobs)},
        "optimizer_shortfalls": shortfalls,
    }
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runner.jobs)} distinct jobs, {len(runner.samples)} samples "
          f"in {passes} passes, {wall:.1f} s")
    for name, unit, _ in spec:
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    for key, val in detail.items():
        print(f"  {key}: {json.dumps(val)}")
    tol = checks.SHORTFALL_TOL
    bad = {k: v for k, v in shortfalls.items() if v > tol}
    print(f"  failed/attempted {failed}/{len(runner.samples)}")
    print(f"  cadence optima below the dense scan by more than {tol:.1%}: "
          f"{len(bad)} of {len(shortfalls)}"
          + "".join(f"\n    {k}: {v:.2%}" for k, v in sorted(bad.items())))
    for name, info in record["jobs"].items():
        for problem in info["problems"]:
            print(f"  FAILED {name}: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
