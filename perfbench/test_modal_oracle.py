"""Tests of the benchmark's modal oracle and of BENCHMARK.json's metric list."""

import json
from pathlib import Path

import numpy as np
import pytest

from modal_oracle import ModalOracle


class _Constant:
    """Constant unit force on [0, inf), the shape the oracle reads."""

    support = (0.0, np.inf)

    @staticmethod
    def value(t):
        return np.ones_like(np.asarray(t, dtype=float))


def single_mode_g(coupling_sq: float, delta: float, tau):
    """Closed-form single-mode response, delta = omega0 - omega_mode."""
    mu = np.sqrt(0.25 * delta * delta + coupling_sq)
    return np.exp(0.5j * delta * tau) * (np.cos(mu * tau)
                                         - 0.5j * delta / mu
                                         * np.sin(mu * tau))


TAUS = np.linspace(0.0, 12.0, 97)


@pytest.mark.parametrize("omega0, freq", [(1.0, 1.0), (2.0, 1.0),
                                          (0.7, 1.9)])
def test_single_mode_closed_form(omega0, freq):
    oracle = ModalOracle([0.25], [freq], [0.0], omega0)
    want = single_mode_g(0.25, omega0 - freq, TAUS)
    assert np.abs(oracle.g(TAUS) - want).max() <= 1e-13


def test_vacuum_bath_unitarity():
    rng = np.random.default_rng(7)
    oracle = ModalOracle(rng.uniform(0.0, 0.05, 40), rng.uniform(0.0, 2.0, 40),
                         np.zeros(40), 1.0)
    g2 = np.abs(oracle.g(TAUS)) ** 2
    assert np.abs(oracle.n_b(TAUS) - 0.5 * (1.0 - g2)).max() <= 1e-13
    assert g2.max() <= 1.0 + 1e-13


def test_single_thermal_mode_noise():
    # one mode: |U_01|^2 = 1 - |G|^2, so n_B = (N + 1/2)(1 - |G|^2)
    oracle = ModalOracle([0.3], [1.4], [0.8], 1.0)
    g2 = np.abs(oracle.g(TAUS)) ** 2
    assert np.abs(oracle.n_b(TAUS) - 1.3 * (1.0 - g2)).max() <= 1e-13


def test_noiseless_displacement():
    # no bath: |omega0 int_0^pi e^{i u} du| = 2
    oracle = ModalOracle([], [], [], 1.0)
    assert abs(oracle.displacement(_Constant, 0.0, np.pi)) == \
        pytest.approx(2.0, abs=1e-13)


def test_step_displacements_match_single_windows():
    oracle = ModalOracle([0.2, 0.1], [0.8, 1.5], [0.3, 0.0], 1.1)
    steps = oracle.step_displacements(_Constant, 0.0, 0.3, 4)
    single = [oracle.displacement(_Constant, 0.3 * k, 0.3 * (k + 1))
              for k in range(4)]
    assert np.abs(steps - single).max() <= 1e-14


def test_correlation_is_hermitian():
    oracle = ModalOracle([0.2, 0.1], [0.8, 1.5], [0.3, 0.0], 1.1)
    a = oracle.correlation(2.1, 0.7, 0.6)
    b = oracle.correlation(0.7, 2.1, 0.6)
    assert a == pytest.approx(np.conj(b), abs=1e-14)


def test_benchmark_json_lists_the_reported_metrics():
    import jobs
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert listed == {n: (u, b) for n, u, b in run.END_TO_END}
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == {n: (u, b) for n, u, b in run.PER_LAYER}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == jobs.WORKLOADS


def test_traced_job_matches_plain_output_and_self_times_add_up(tmp_path):
    import os
    import subprocess
    import sys

    import run

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cli = ["qfi", "--config", str(root / "scenarios" / "qfi_noiseless_pi.json")]
    subprocess.run([sys.executable, "-m", "nmqfi.cli", *cli,
                    "--out", str(tmp_path / "plain")], env=env, check=True)
    subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"),
                    str(tmp_path / "spans.json"), "job-1", *cli,
                    "--out", str(tmp_path / "traced")], env=env, check=True)
    assert (tmp_path / "plain").read_text() == \
        (tmp_path / "traced").read_text()
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["job"] == "job-1"
    rows = list(run._span_times(spans))
    roots = [r for r in rows if r[3] is None]
    assert [r[0] for r in roots] == ["cli.main"]
    assert {"config.load_config", "response.solve_response",
            "probe.displacement", "quad.adaptive_simpson"} <= \
        {r[0] for r in rows}
    assert sum(r[2] for r in rows) == roots[0][1]
    assert all(r[2] >= 0 for r in rows)
