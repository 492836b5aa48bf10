"""Traced entry point: run one nmqfi CLI job with spans around every layer.

    python perfbench/tracer.py SPANS.json JOB_ID <nmqfi cli arguments...>

Installs timing wrappers on the public functions of each module in
`src/nmqfi` (in every module that binds them, so `displacement` is wrapped
in `probe`, `metrology`, `sequential` and `cli` alike), then calls
`nmqfi.cli.main` in this same cold process. Spans are kept in memory and
written to SPANS.json at exit, together with work counters taken at the
same boundaries; every span of the file belongs to job JOB_ID. The
engine's own files are not modified.
"""

import time

_T_START = time.perf_counter_ns()   # first statement after interpreter start

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

# Functions wrapped per module. Each becomes a span named "<layer>.<name>";
# the module file name is the layer ("_quad" is reported as "quad").
TRACED = {
    "cli": ["_write_csv", "_write_json", "_sequential_point", "run_response",
            "run_moments", "run_qfi", "run_estimate", "run_sequential",
            "run_sweep", "run_correlation", "run_limits"],
    "config": ["load_config", "validate"],
    "bath": ["discretize", "moments", "memory_kernel", "bare_correlation"],
    "response": ["solve_response", "default_grid", "markov_closed_form",
                 "markov_decay_rate"],
    "probe": ["displacement", "noise_term", "covariance_snapshot",
              "quadrature_mean", "quadrature_variance", "variance_p",
              "mode_displacement"],
    "metrology": ["qfi_best_state", "qfi_aligned", "qfi_general",
                  "simulate_estimation", "best_state", "fisher_quadrature"],
    "sequential": ["optimize_tau", "seq_qfi", "step_noise_variance",
                   "xi_and_c", "default_tau_bounds", "tau_opt_asymptotic",
                   "seq_qfi_asymptotic", "markov_seq"],
    "correlation": ["bath_correlation", "equal_start_correlation",
                    "_double_term"],
    "_quad": ["adaptive_simpson", "adaptive_simpson_vector"],
}
# Methods wrapped on their class: (module, class, methods).
TRACED_METHODS = [
    ("config", "ScenarioConfig", ["bath", "force", "grid", "init_state"]),
    ("response", "ResponseFunction", ["g", "g_dot"]),
]


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []      # [name id, start, end, parent]
        self.stack: list[int] = []
        self.counters = {"quad.calls": 0, "quad.nodes": 0,
                         "quad.final_nodes": 0, "quad.at_cap": 0,
                         "response.g_points": 0}

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name: str, fn):
        """Wrap fn so each call records a span under the current parent."""
        idx = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [idx, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _quad(self, fn):
        """Count integrand nodes per pass of a node-doubling quadrature."""
        max_default = inspect.signature(fn).parameters["max_panels"].default
        counters = self.counters

        def counted(f, *args, **kwargs):
            passes = []

            def integrand(x):
                passes.append(np.size(x))
                return f(x)

            try:
                return fn(integrand, *args, **kwargs)
            finally:
                counters["quad.calls"] += 1
                counters["quad.nodes"] += sum(passes)
                if passes:
                    counters["quad.final_nodes"] += passes[-1]
                    cap = kwargs.get("max_panels", max_default)
                    if passes[-1] - 1 >= cap:
                        counters["quad.at_cap"] += 1

        return functools.wraps(fn)(counted)

    def _points(self, fn):
        counters = self.counters

        def counted(obj, tau):
            counters["response.g_points"] += np.size(tau)
            return fn(obj, tau)

        return functools.wraps(fn)(counted)

    def install(self) -> None:
        """Replace every binding of each traced function in nmqfi modules."""
        modules = {name[len("nmqfi."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("nmqfi.")}
        swap = {}
        for mod_name, funcs in TRACED.items():
            layer = mod_name.lstrip("_")
            for fname in funcs:
                orig = getattr(modules[mod_name], fname)
                inner = self._quad(orig) if layer == "quad" else orig
                swap[id(orig)] = self.span(f"{layer}.{fname}", inner)
        for mod_name, cls_name, methods in TRACED_METHODS:
            cls = getattr(modules[mod_name], cls_name)
            for meth in methods:
                orig = getattr(cls, meth)
                inner = self._points(orig) if cls_name == "ResponseFunction" \
                    else orig
                setattr(cls, meth, self.span(f"{mod_name}.{meth}", inner))
        for mod in [sys.modules["nmqfi"], *modules.values()]:
            for attr, val in list(vars(mod).items()):
                if id(val) in swap:
                    setattr(mod, attr, swap[id(val)])
                elif isinstance(val, dict):       # dispatch tables
                    for key, entry in val.items():
                        if id(entry) in swap:
                            val[key] = swap[id(entry)]

    def dump(self, path: str, job: str, t_imported: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "t_start": _T_START,
                       "t_imported": t_imported,
                       "names": self.names, "spans": self.spans,
                       "counters": self.counters}, fh)


def main() -> int:
    spans_path, job, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import nmqfi.cli

    tracer = Tracer()
    tracer.install()
    run = tracer.span("cli.main", nmqfi.cli.main)
    t_imported = time.perf_counter_ns()
    try:
        return run(argv)
    finally:
        tracer.dump(spans_path, job, t_imported)


if __name__ == "__main__":
    sys.exit(main())
