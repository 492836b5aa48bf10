"""Per-job output checks against the modal oracle.

Each distinct job is checked once per run, outside the timed loop. The
tolerances are never looser than the test suite's for the same quantity:

- |G| columns: 1e-6 absolute (tests/test_response.py, sampled G vs exact);
- n_B and variance-like denominators: 2e-7 absolute
  (tests/test_oracle_dynamics.py, noise term and variances);
- det_sigma: 1e-6 relative (tests/test_oracle_dynamics.py);
- |D|: 2e-7 absolute (tests/test_oracle_dynamics.py, displacement);
- two-time correlation: 1e-7 absolute (tests/test_correlation.py);
- closed-form `limits` columns: 1e-12 absolute (same formula, rounding);
- Monte-Carlo ratio_to_crb: |r - 1| <= 4.5 sqrt(2 / replications), which is
  the suite's 0.9..1.1 band at its 2000 replications and tighter above;
- cadence tau-scan rows: 1e-7 relative to the oracle objective (the
  suite's single-step cadence vs best-state tolerance);
- cadence totals: equal to the engine objective at the reported tau
  (1e-12 relative, the suite's additivity tolerance) and at most
  SHORTFALL_TOL below the best of a dense oracle scan (the suite's
  0.995 dense-scan criterion).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from modal_oracle import ModalOracle

G_TOL = 1e-6
NB_TOL = 2e-7
DET_REL_TOL = 1e-6
D_TOL = 2e-7
CORR_TOL = 1e-7
CLOSED_FORM_TOL = 1e-12
ORACLE_OBJECTIVE_REL_TOL = 1e-7
OBJECTIVE_REL_TOL = 1e-12
SHORTFALL_TOL = 5e-3
# Dense cadence scan: every repetition-lattice point tau = T/nu inside the
# bracket plus this many log-spaced points.
SCAN_LOG_POINTS = 400


@dataclass
class CheckResult:
    """Outcome of one job's checks plus the accuracy figures it measured."""

    problems: list[str] = field(default_factory=list)
    g_err: float = 0.0
    n_b_err: float = 0.0
    # (job row label, relative shortfall of the reported optimum below the
    # dense scan's best); positive means the optimizer missed the best.
    shortfalls: list[tuple[str, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def expect(self, label: str, err: float, tol: float) -> None:
        if not err <= tol:
            self.problems.append(f"{label}: error {err:.3e} > {tol:.1e}")


def parse_output(text: str, fmt: str):
    """CSV -> (header, float rows); JSON -> dict. Raises ValueError."""
    if fmt == "json":
        return json.loads(text)
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = np.array([[float(v) for v in row] for row in reader])
    return header, rows


def non_finite(parsed) -> bool:
    """True when any number in the parsed output is NaN or infinite."""
    if isinstance(parsed, tuple):
        return not np.all(np.isfinite(parsed[1]))
    stack = [parsed]
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, float) and not math.isfinite(v):
            return True
    return False


def _column(parsed, name: str) -> np.ndarray:
    header, rows = parsed
    return rows[:, header.index(name)]


def _oracle(cfg) -> ModalOracle:
    bath = cfg.bath()
    return ModalOracle(bath.coupling_sq, bath.frequencies, bath.occupations,
                       cfg.omega0)


def _init_trace_det(cfg) -> tuple[float, float]:
    """Trace and determinant of the configured initial probe covariance."""
    init = cfg.raw["probe"].get("init", {"kind": "vacuum"})
    kind = init["kind"]
    if kind in ("vacuum", "coherent"):
        return 1.0, 0.25
    if kind == "squeezed":
        return math.cosh(2.0 * init.get("r", 0.0)), 0.25
    if kind == "thermal":
        v = init.get("nbar", 0.0) + 0.5
        return 2.0 * v, v * v
    cov = np.asarray(init["cov"], dtype=float)
    return float(np.trace(cov)), float(np.linalg.det(cov))


def _script_e(energy: float) -> float:
    return energy + math.sqrt(max(energy * energy - 0.25, 0.0))


def _check_g(cfg, parsed, res: CheckResult, column: str) -> None:
    tau = _column(parsed, "tau")
    res.g_err = float(np.abs(_column(parsed, column)
                             - np.abs(_oracle(cfg).g(tau))).max())
    res.expect("|G|", res.g_err, G_TOL)


def _check_response(cfg, parsed, res: CheckResult) -> None:
    _check_g(cfg, parsed, res, "abs_g")


def _check_limits(cfg, parsed, res: CheckResult) -> None:
    _check_g(cfg, parsed, res, "abs_exact")
    tau = _column(parsed, "tau")
    bath = cfg.bath()
    omega2 = math.sqrt(float(bath.coupling_sq.sum()))
    res.expect("narrowband column",
               float(np.abs(_column(parsed, "narrowband")
                            - np.cos(omega2 * tau)).max()), CLOSED_FORM_TOL)
    if "gamma" in cfg.options:
        gamma = float(cfg.options["gamma"])
    else:
        gamma = 2.0 * math.pi * float(cfg.spectrum().density(cfg.omega0))
    res.expect("markov column",
               float(np.abs(_column(parsed, "markov")
                            - np.exp(-0.5 * gamma * tau)).max()),
               CLOSED_FORM_TOL)


def _check_moments(cfg, parsed, res: CheckResult) -> None:
    oracle = _oracle(cfg)
    tau = _column(parsed, "t") - float(cfg.raw["window"]["t0"])
    n_b = oracle.n_b(tau)
    g2 = np.abs(oracle.g(tau)) ** 2
    tr0, det0 = _init_trace_det(cfg)
    det = g2 * g2 * det0 + g2 * tr0 * n_b + n_b * n_b
    res.n_b_err = float(np.abs(_column(parsed, "n_b") - n_b).max())
    res.expect("n_b", res.n_b_err, NB_TOL)
    res.expect("det_sigma", float(np.abs(_column(parsed, "det_sigma") / det
                                         - 1.0).max()), DET_REL_TOL)


def _check_qfi(cfg, payload: dict, res: CheckResult) -> None:
    oracle = _oracle(cfg)
    t0, t1 = float(cfg.raw["window"]["t0"]), float(cfg.raw["window"]["t"])
    tau = t1 - t0
    g2 = float(abs(oracle.g(tau)) ** 2)
    n_b = float(oracle.n_b(tau))
    energy = cfg.raw["probe"].get("energy")
    if energy is not None:
        se = _script_e(float(energy))
        res.expect("best-state denominator",
                   abs(payload["variance"] - (0.25 * g2 / se + n_b)), NB_TOL)
        # best squeezed state: pure, r = ln(2 se) / 2
        tr0, det0 = 0.5 * (2.0 * se + 0.5 / se), 0.25
    else:
        tr0, det0 = _init_trace_det(cfg)
    det = g2 * g2 * det0 + g2 * tr0 * n_b + n_b * n_b
    res.expect("det_sigma", abs(payload["det_sigma"] / det - 1.0),
               DET_REL_TOL)
    d = oracle.displacement(cfg.force(), t0, t1)
    res.expect("|D|", abs(payload["abs_d"] - abs(d)), D_TOL)


def _check_estimate(cfg, payload: dict, res: CheckResult) -> None:
    band = 4.5 * math.sqrt(2.0 / payload["replications"])
    res.expect("ratio_to_crb", abs(payload["ratio_to_crb"] - 1.0), band)


def _check_correlation(cfg, parsed, res: CheckResult) -> None:
    oracle = _oracle(cfg)
    t_prime = float(cfg.options.get("t_prime", 0.0))
    t = _column(parsed, "t_minus_tprime") + t_prime
    init = cfg.raw["probe"].get("init")
    tr0 = _init_trace_det(cfg)[0] if init else 1.0
    want = oracle.correlation(t, np.full_like(t, t_prime), 0.5 * tr0)
    got = _column(parsed, "re_total") + 1j * _column(parsed, "im_total")
    res.expect("correlation", float(np.abs(got - want).max()), CORR_TOL)


class _Cadence:
    """Engine objective and dense oracle scan for one cadence scenario."""

    def __init__(self, cfg):
        from nmqfi.response import solve_response

        self.cfg = cfg
        self.bath = cfg.bath()
        self.resp = solve_response(self.bath, cfg.grid(self.bath))
        self.force = cfg.force()
        block = cfg.raw["sequential"]
        self.total = float(block["total_window"])
        self.bounds = tuple(float(v) for v in block["tau_bounds"])
        self.oracle = ModalOracle(self.bath.coupling_sq,
                                  self.bath.frequencies,
                                  self.bath.occupations, cfg.omega0)
        self._scan = None

    def engine_total(self, tau: float, energy: float) -> float:
        from nmqfi.sequential import SequentialScheme, seq_qfi

        return seq_qfi(SequentialScheme(self.total, tau), energy, self.bath,
                       self.resp, self.force, self.cfg.omega0).total_qfi

    def oracle_ingredients(self, taus) -> tuple[np.ndarray, ...]:
        """Per tau: summed |D_k|^2 over the nu steps, |G|^2 and n_B."""
        num = np.empty(len(taus))
        for i, tau in enumerate(taus):
            nu = int(math.floor(self.total / tau + 1e-12))
            d = self.oracle.step_displacements(self.force, 0.0, tau, nu)
            num[i] = float(np.sum(np.abs(d) ** 2))
        taus = np.asarray(taus)
        return num, np.abs(self.oracle.g(taus)) ** 2, self.oracle.n_b(taus)

    def scan_best(self, se: float) -> float:
        """Best oracle total over the lattice tau = T/nu plus a log grid."""
        if self._scan is None:
            lo, hi = self.bounds
            nus = np.arange(math.ceil(self.total / hi),
                            math.floor(self.total / lo) + 1)
            lattice = self.total / nus
            lattice = lattice[(lattice >= lo) & (lattice <= hi)]
            taus = np.concatenate((lattice,
                                   np.geomspace(lo, hi, SCAN_LOG_POINTS)))
            self._scan = self.oracle_ingredients(taus)
        num, g2, n_b = self._scan
        return float(np.max(num / (0.25 * g2 / se + n_b)))

    def check_point(self, label: str, tau: float, reported: float,
                    energy: float, res: CheckResult) -> None:
        engine = self.engine_total(tau, energy)
        res.expect(f"{label} total vs engine objective",
                   abs(reported - engine) / abs(engine), OBJECTIVE_REL_TOL)
        best = self.scan_best(_script_e(energy))
        res.shortfalls.append((label, (best - reported) / best))


def _check_sequential(cfg, parsed, res: CheckResult) -> None:
    cad = _Cadence(cfg)
    energy = float(cfg.raw["probe"]["energy"])
    if isinstance(parsed, dict):
        cad.check_point("optimum", parsed["tau_opt_numeric"],
                        parsed["total_qfi"], energy, res)
        return
    # --format csv: a tau scan; every row must match the oracle objective
    tau, total = _column(parsed, "tau"), _column(parsed, "total_qfi")
    num, g2, n_b = cad.oracle_ingredients(tau)
    want = num / (0.25 * g2 / _script_e(energy) + n_b)
    engine = np.array([cad.engine_total(float(t), energy) for t in tau])
    res.expect("scan rows vs engine objective",
               float(np.abs(total / engine - 1.0).max()), OBJECTIVE_REL_TOL)
    res.expect("scan rows vs oracle objective",
               float(np.abs(total / want - 1.0).max()), ORACLE_OBJECTIVE_REL_TOL)


def _check_sweep(cfg, parsed, res: CheckResult) -> None:
    from nmqfi.metrology import energy_for_script_e

    cad = _Cadence(cfg)
    header, rows = parsed
    for row in rows:
        se, tau, total = (row[header.index(k)]
                          for k in ("script_e", "tau_opt", "total_qfi"))
        cad.check_point(f"script_e={se:g}", float(tau), float(total),
                        energy_for_script_e(float(se)), res)


def check(job, text: str) -> CheckResult:
    """Check one job's output text against the oracle; never raises."""
    from nmqfi.config import validate

    res = CheckResult()
    fmt = job.fmt or ("json" if job.subcommand in ("qfi", "estimate",
                                                   "sequential") else "csv")
    try:
        parsed = parse_output(text, fmt)
    except (ValueError, StopIteration) as exc:
        res.problems.append(f"unparseable output: {exc}")
        return res
    if non_finite(parsed):
        res.problems.append("output holds NaN or Inf")
        return res
    try:
        _CHECKS[job.subcommand](validate(job.config), parsed, res)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        res.problems.append(f"output does not have the expected shape: "
                            f"{exc!r}")
    return res


_CHECKS = {
    "response": _check_response, "limits": _check_limits,
    "moments": _check_moments, "qfi": _check_qfi,
    "estimate": _check_estimate, "correlation": _check_correlation,
    "sequential": _check_sequential, "sweep": _check_sweep,
}
