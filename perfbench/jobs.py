"""Workload definitions: seeded scenario generation for each workload.

A workload is a fixed list of distinct jobs. The seed jitters physical
parameters by up to 2 % and shuffles the job order; it never changes
which kinds of jobs run or their sizes, so every seed exercises the same
layers with the same weight and run-to-run spread stays small.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Why each workload exists; BENCHMARK.json carries the same one-liners.
WORKLOADS = {
    "shipped": "the 12 shipped scenarios: interpreter start, imports, "
               "schema validation and output formatting dominate, so "
               "start-up, config and writer changes show here",
    "single_shot": "generated response/limits/moments/qfi/estimate/"
                   "correlation jobs, 16-1024 modes: solve_response, noise "
                   "and correlation quadratures and Monte-Carlo draws "
                   "dominate",
    "cadence": "generated sequential and sweep jobs, 1-16 thermal modes: "
               "the optimize_tau objective loop dominates, via "
               "displacement and step_noise_variance",
}

# Subcommand for each shipped scenario, by file-name prefix.
_SHIPPED_SUBCOMMAND = {
    "correlation": "correlation", "estimate": "estimate", "limits": "limits",
    "moments": "moments", "qfi": "qfi", "response": "response",
    "sequential": "sequential", "sweep": "sweep",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `nmqfi <subcommand> --config <name>.json`."""

    name: str
    subcommand: str
    config: dict = field(hash=False)
    fmt: str | None = None

    def argv(self, config_path: str, out_path: str) -> list[str]:
        args = [self.subcommand, "--config", config_path, "--out", out_path]
        if self.fmt:
            args += ["--format", self.fmt]
        return args


def _jitter(rng: random.Random, x: float) -> float:
    """x moved by up to 2 %: new inputs per seed at nearly the same cost."""
    return round(x * rng.uniform(0.98, 1.02), 6)


def _continuum(family: str, scale: float, cutoff: float, n_modes: int,
               temperature: float | None = None, shape: str = "hard") -> dict:
    block = {"family": family, "scale": scale, "cutoff": cutoff,
             "n_modes": n_modes, "cutoff_shape": shape}
    if family == "ohmic":
        block["s"] = 1.0
    block["occupation"] = ({"model": "zero"} if temperature is None else
                           {"model": "thermal", "temperature": temperature})
    return {"continuum": block}


def _single_shot(rng: random.Random) -> list[Job]:
    def j(x: float) -> float:
        return _jitter(rng, x)

    const = {"kind": "constant", "value": 1.0, "support": [0.0, 100.0]}
    sinus = {"kind": "sinusoid", "amplitude": 1.0, "frequency": j(0.8),
             "phase": j(0.3), "support": [0.0, 100.0]}
    pulse = {"kind": "gaussian_pulse", "center": j(2.0), "width": j(0.6),
             "support": [0.0, 4.0]}
    probe = {"omega0": 1.0}
    return [
        Job("response_flat_1024", "response", {
            "probe": probe, "grid": {"t_end": j(20.0), "n_steps": 12288},
            "bath": _continuum("flat", j(0.004), 2.0, 1024)}),
        Job("response_ohmic_256", "response", {
            "probe": probe, "grid": {"t_end": j(16.0), "n_steps": 16384},
            "bath": _continuum("ohmic", j(0.02), 2.0, 256, j(0.8),
                               "exponential")}),
        Job("limits_flat_512", "limits", {
            "probe": probe, "grid": {"t_end": j(30.0), "n_steps": 16384},
            "bath": _continuum("flat", j(0.003), 2.0, 512, j(0.5))}),
        Job("moments_flat_256", "moments", {
            "probe": {"omega0": 1.0, "init": {"kind": "coherent",
                                              "alpha_re": j(1.0)}},
            "grid": {"t_end": j(6.0), "n_steps": 2048},
            "bath": _continuum("flat", j(0.01), 2.0, 256, j(0.6)),
            "force": pulse, "window": {"t0": 0.0, "t": 5.0},
            "options": {"report_points": 33, "force_amplitude": 0.5}}),
        Job("moments_ohmic_16", "moments", {
            "probe": {"omega0": 1.0, "init": {"kind": "vacuum"}},
            "grid": {"t_end": j(8.0), "n_steps": 2048},
            "bath": _continuum("ohmic", j(0.03), 2.0, 16, None, "exponential"),
            "force": const, "window": {"t0": 0.0, "t": 7.5},
            "options": {"report_points": 25, "force_amplitude": 0.3,
                        "theta": j(0.4)}}),
        Job("qfi_energy_flat_512", "qfi", {
            "probe": {"omega0": 1.0, "energy": j(5.0)},
            "grid": {"t_end": j(10.0), "n_steps": 12288},
            "bath": _continuum("flat", j(0.01), 2.0, 512, j(0.8)),
            "force": sinus, "window": {"t0": 0.0, "t": 8.0}}),
        Job("qfi_squeezed_ohmic_192", "qfi", {
            "probe": {"omega0": 1.0, "init": {"kind": "squeezed",
                                              "r": j(0.6),
                                              "axis_angle": j(0.9)}},
            "grid": {"t_end": j(6.0), "n_steps": 2048},
            "bath": _continuum("ohmic", j(0.03), 2.0, 192, j(0.8),
                               "exponential"),
            "force": pulse, "window": {"t0": 0.0, "t": 4.0}}),
        Job("estimate_energy_32", "estimate", {
            "probe": {"omega0": 1.0, "energy": j(3.0)},
            "grid": {"t_end": 4.0, "n_steps": 2048},
            "bath": _continuum("flat", j(0.01), 2.0, 32, j(0.6)),
            "force": const, "window": {"t0": 0.0, "t": 3.0},
            "options": {"force_amplitude": 0.3, "nu": 1250,
                        "replications": 8000, "seed": rng.randrange(1 << 30)}}),
        Job("correlation_flat_256", "correlation", {
            "probe": probe, "grid": {"t_end": j(12.0), "n_steps": 2048},
            "bath": _continuum("flat", j(0.02), 2.0, 256, j(0.5)),
            "options": {"report_points": 49, "t_prime": 0.0}}),
        Job("correlation_lag_16", "correlation", {
            "probe": probe, "grid": {"t_end": j(6.0), "n_steps": 2048},
            "bath": _continuum("flat", j(0.02), 2.0, 16, j(0.5)),
            "options": {"report_points": 13, "t_prime": 1.0}}),
    ]


def _cadence(rng: random.Random) -> list[Job]:
    def j(x: float) -> float:
        return _jitter(rng, x)

    const = {"kind": "constant", "value": 1.0, "support": [0.0, 100.0]}
    sinus = {"kind": "sinusoid", "amplitude": 1.0, "frequency": j(3.0),
             "phase": j(0.4), "support": [0.0, 100.0]}
    pulse = {"kind": "gaussian_pulse", "center": j(1.0), "width": j(0.3),
             "support": [0.0, 2.0]}

    def scenario(n_modes: int, force: dict, energy: float = 50.0,
                 bounds=(0.01, 0.5), **options) -> dict:
        return {"probe": {"omega0": 1.0, "energy": j(energy)},
                "grid": {"t_end": 1.0, "n_steps": 2048},
                "bath": _continuum("flat", j(1.0 / n_modes), 2.0, n_modes,
                                   j(0.8)),
                "force": force,
                "sequential": {"total_window": 2.0, "optimize": True,
                               "tau_bounds": list(bounds)},
                "options": {"gamma": 0.1, **options}}

    pulse_short = {"kind": "gaussian_pulse", "center": j(0.5),
                   "width": j(0.15), "support": [0.0, 1.0]}
    sweep = [round(j(v), 3) for v in (100.0, 200.0, 500.0, 1000.0, 3000.0,
                                      10000.0)]
    return [
        Job("sequential_const_8", "sequential", scenario(8, const)),
        Job("sequential_pulse_4", "sequential", scenario(4, pulse)),
        Job("sequential_sinus_16", "sequential", scenario(16, sinus)),
        Job("scan_const_8", "sequential",
            scenario(8, const, report_points=33), "csv"),
        Job("scan_pulse_2", "sequential",
            scenario(2, pulse, report_points=33), "csv"),
        Job("sweep_const_2", "sweep", scenario(2, const, energy_sweep=sweep)),
        Job("sweep_const_16", "sweep",
            scenario(16, const, energy_sweep=sweep[::2])),
        Job("sweep_pulse_1", "sweep",
            dict(scenario(1, pulse_short, energy_sweep=sweep[1::2]),
                 sequential={"total_window": 1.0, "optimize": True,
                             "tau_bounds": [0.06, 0.5]})),
    ]


def _shipped(scenario_dir: Path) -> list[Job]:
    return [Job(path.stem, _SHIPPED_SUBCOMMAND[path.stem.split("_")[0]],
                json.loads(path.read_text()))
            for path in sorted(scenario_dir.glob("*.json"))]


def generate(workload: str, rng: random.Random,
             scenario_dir: Path) -> list[Job]:
    """The workload's distinct jobs; seeded parameters for generated ones."""
    if workload == "shipped":
        return _shipped(scenario_dir)
    if workload == "single_shot":
        return _single_shot(rng)
    return _cadence(rng)
