"""The response equation marched in time: the engine's former route to G.

Both marches solve

    dG/dtau = - integral_0^tau kernel(tau - s) G(s) ds,   G(0) = 1,

with an implicit product-trapezoid scheme on a grid _REFINE times finer
than the requested one, so their global error is O(h^2) in the requested
step. blocked_response advances _BLOCK inner steps per linear solve;
marched_response advances one. The engine's solve_response evaluates G
exactly instead; these marches stay as an independent route for the
tests and for tests/march_table.py.
"""

import numpy as np

from nmqfi.bath import DiscreteBath
from nmqfi.errors import SolverInstabilityError
from nmqfi.response import _ABS_G_SLACK, ResponseFunction, TimeGrid

# Internal marching runs on a grid this many times finer than the requested
# one; the scheme stays second order in the grid step while the error
# constant drops by the square of the factor.
_REFINE = 4

# Inner steps the blocked march advances per block (a multiple of _REFINE).
_BLOCK = 64


def blocked_response(bath: DiscreteBath, grid: TimeGrid) -> ResponseFunction:
    """March the response equation with an implicit product-trapezoid scheme.

    On the inner step h, b_j = sum_{i<j} w_i g_i k_{j-i} is the trapezoid
    memory sum (w_0 = 1/2, else 1; k_m = sum_n |K_n|^2 e^{i delta_n m h})
    and the step is the trapezoid rule on dG/dtau, implicit in g_j:

        g_j = (g_{j-1} + h/2 gd_{j-1} - h^2/2 b_j) / (1 + h^2 K^2 / 4),
        gd_j = -h (b_j + K^2 g_j / 2).

    The march advances _BLOCK inner steps at a time. History older than
    the block enters b through the per-mode state
    a_J[n] = sum_{i<J} w_i g_i e^{i delta_n (J-i) h}, one matrix-vector
    product per block; the steps inside the block form one lower-triangular
    linear system, whose inverse is built once per call. Cost scales with
    n_steps * n_modes, not n_steps**2. Marching runs on a grid _REFINE
    times finer than requested and stores every _REFINE-th sample. Global
    error is O(h^2) in the requested step.

    Raises SolverInstabilityError when |G| at any inner step leaves the
    unit disc by more than 1e-6, the signature of a step too coarse for
    the kernel.
    """
    n_out = grid.n_steps
    g = np.empty(n_out + 1, dtype=complex)
    g_dot = np.empty(n_out + 1, dtype=complex)
    ksq = bath.k_squared
    g[0], g_dot[0] = 1.0, 0.0

    if ksq == 0.0:            # no mode carries weight: G is identically one
        g[:], g_dot[:] = 1.0, 0.0
        return ResponseFunction(grid, g, g_dot, bath)

    h = grid.h / _REFINE
    n_int = n_out * _REFINE
    delta = bath.detunings
    i_delta = 1j * delta
    # ahead[p, n] = e^{i delta_n (B-p) h} carries step p of a block to the
    # block end; its rows reversed are the kernel phases of lags 1..B.
    ahead = np.exp(np.outer(np.arange(_BLOCK, 0, -1) * h, i_delta))
    lagged = bath.coupling_sq * ahead[::-1]          # E[m-1, n] = c_n e^{i delta_n m h}
    kern = lagged.sum(axis=1)                        # k_1 .. k_B
    store = slice(_REFINE - 1, None, _REFINE)        # block rows kept as samples

    # In-block memory: b = E a_J + toeplitz(k) x with x_q = w g at step q.
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    causal = lag >= 0
    toep = np.where(causal, kern[lag], 0.0)
    toep_kept = toep[store]
    # The B steps as one system M u = e_0 (g_0 + h/2 gd_0) - H (p + x_0 k)
    # in u = (g_1 .. g_B), with p = E a_J: M = D + H S, D the implicit
    # step, H the trapezoid pair and S the strictly lower memory matrix.
    eye, sub = np.eye(_BLOCK), np.eye(_BLOCK, k=-1)
    step = (1.0 + 0.25 * h * h * ksq) * eye - (1.0 - 0.25 * h * h * ksq) * sub
    pair = 0.5 * h * h * (eye + sub)
    strict = np.zeros((_BLOCK, _BLOCK), dtype=complex)
    strict[:, :-1] = toep[:, 1:]
    inverse = np.linalg.inv(step + pair @ strict)
    gain = inverse @ pair
    gain_k = gain @ kern
    lead = inverse[:, 0]

    state = np.zeros(delta.shape[0], dtype=complex)  # a_J
    g_prev, gd_prev, w_prev = 1.0 + 0.0j, 0.0 + 0.0j, 0.5
    for start in range(0, n_int, _BLOCK):
        r = min(_BLOCK, n_int - start)               # r is a multiple of _REFINE
        x0 = w_prev * g_prev
        past = lagged[:r] @ state
        u = (lead[:r] * (g_prev + 0.5 * h * gd_prev) - gain[:r, :r] @ past
             - x0 * gain_k[:r])
        over = np.abs(u) > 1.0 + _ABS_G_SLACK
        if over.any():
            first = int(np.argmax(over))
            raise SolverInstabilityError(
                f"|G| reached {abs(u[first]):.8f} at tau={(start + first + 1) * h:g}; "
                "refine the time grid for this kernel")
        x = np.concatenate(([x0], u[:-1]))
        kept = u[store]
        n_kept = kept.shape[0]
        b = past[store] + toep_kept[:n_kept, :r] @ x
        out = slice(start // _REFINE + 1, start // _REFINE + 1 + n_kept)
        g[out] = kept
        g_dot[out] = -h * (b + 0.5 * ksq * kept)
        if r == _BLOCK:
            state = ahead[0] * state + x @ ahead
        g_prev, gd_prev, w_prev = u[-1], g_dot[out.stop - 1], 1.0

    return ResponseFunction(grid, g, g_dot, bath)


def marched_response(bath: DiscreteBath, grid: TimeGrid) -> ResponseFunction:
    """The response equation marched one inner step at a time.

    The same implicit product-trapezoid scheme as blocked_response, on the
    same _REFINE-fold inner grid, with the memory sum kept as per-mode
    running phase accumulators (phases refreshed exactly every 1024 steps).
    """
    n_out = grid.n_steps
    g = np.empty(n_out + 1, dtype=complex)
    g_dot = np.empty(n_out + 1, dtype=complex)
    ksq = bath.k_squared
    g[0], g_dot[0] = 1.0, 0.0

    if ksq == 0.0:            # no mode carries weight: G is identically one
        g[:], g_dot[:] = 1.0, 0.0
        return ResponseFunction(grid, g, g_dot, bath)

    h = grid.h / _REFINE
    n_int = n_out * _REFINE
    delta = bath.detunings
    c = bath.coupling_sq.astype(complex)
    rot = np.exp(-1j * delta * h)
    phases = np.ones(delta.shape[0], dtype=complex)   # exp(-i delta tau_j)
    acc = np.zeros(delta.shape[0], dtype=complex)     # weighted history sums
    implicit = 1.0 + 0.25 * h * h * ksq
    g_prev = 1.0 + 0.0j
    gd_prev = 0.0 + 0.0j
    worst = 1.0

    for j in range(1, n_int + 1):
        acc += (0.5 if j == 1 else 1.0) * g_prev * phases
        if j % 1024:
            phases = phases * rot
        else:
            phases = np.exp(-1j * delta * (j * h))   # periodic exact refresh
        hist = np.conj(phases) * acc
        b = complex(np.dot(c, hist))
        g_j = (g_prev + 0.5 * h * gd_prev - 0.5 * h * h * b) / implicit
        gd_j = -h * (b + 0.5 * ksq * g_j)
        mag = abs(g_j)
        if mag > worst:
            worst = mag
            if worst > 1.0 + _ABS_G_SLACK:
                raise SolverInstabilityError(
                    f"|G| reached {worst:.8f} at tau={j * h:g}; "
                    "refine the time grid for this kernel")
        if j % _REFINE == 0:
            k = j // _REFINE
            g[k] = g_j
            g_dot[k] = gd_j
        g_prev, gd_prev = g_j, gd_j

    return ResponseFunction(grid, g, g_dot, bath)
