"""Force estimation with an oscillator probe in an arbitrary Gaussian bath.

The engine solves the probe's exact open-system response, builds the
Gaussian moments it induces, and evaluates the quantum Fisher information
together with the optimal probe state, optimal quadrature measurement, and
the optimal cadence of a repeated prepare-sense-measure protocol.

Importing the package runs no engine module. Every engine module but
`cli` and `errors` is registered lazily: it compiles and runs when one of
its attributes is first read, so a command runs only the modules it
calls. `cli` is left to the normal import, because `python -m nmqfi.cli`
runs it as `__main__`. Each public name is read from the module that
defines it, for example `from nmqfi.probe import displacement`.
"""

import importlib.util as _util
import sys as _sys

for _name in ("_quad", "bath", "config", "correlation", "force", "metrology",
              "probe", "response", "sequential"):
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _module = _util.module_from_spec(_spec)
    _sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)

__version__ = "0.1.0"
