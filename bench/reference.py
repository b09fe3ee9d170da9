"""Independent reference computations for the benchmark's correctness checks.

Everything here is plain numpy over the recorded trace columns and the
experiment's JSON config document. Nothing is taken from mraclab.poly,
mraclab.system or mraclab.harness, so a fault in those layers cannot make
its own check pass.

Time indexing follows the package's recording conventions: the trace holds
rows t = t0 .. t0 + T; the initial-condition vector x0 stacks the outputs
y(t0) .. y(t0-n-d+2) and then the inputs u(t0-1) .. u(t0-m-2d+2); history
older than x0 is zero.
"""

from __future__ import annotations

import numpy as np


def predictor_params(a, b, L, d: int) -> tuple[np.ndarray, np.ndarray]:
    """theta* = (alpha, beta) and F from L = F*A + z^-d alpha, solved as a linear system.

    The unknowns are f_0 .. f_{d-1} and alpha_0 .. alpha_{n-1}; equation k
    matches the coefficient of z^-k for k = 0 .. n+d-1. beta = F*B.
    """
    a = np.asarray(a, dtype=float)
    A = np.concatenate(([1.0], a))
    n = len(a)
    size = n + d
    M = np.zeros((size, size))
    for i in range(d):
        M[i : i + n + 1, i] = A
    M[d:, d:] = np.eye(n)
    rhs = np.zeros(size)
    rhs[: len(L)] = L
    x = np.linalg.solve(M, rhs)
    F = x[:d]
    theta = np.concatenate((x[d:], np.convolve(F, np.asarray(b, dtype=float))))
    return theta, F


class History:
    """Recorded y/u columns extended backwards by x0 and zero padding."""

    def __init__(self, y, u, x0, n: int, m: int, d: int, t0: int = 0):
        x0 = np.asarray(x0, dtype=float)
        ny = n + d - 1
        self.pad = n + m + 2 * d + 8  # deeper than any lag the checks read
        self.t0 = t0
        y_pre = np.zeros(self.pad)
        u_pre = np.zeros(self.pad)
        # y(t0-k) = x0[k] for k = 1 .. n+d-2 (x0[0] is y(t0), the first row)
        older_y = x0[1:ny]
        y_pre[self.pad - len(older_y) :] = older_y[::-1]
        older_u = x0[ny:]  # u(t0-1-k) = x0[ny+k]
        u_pre[self.pad - len(older_u) :] = older_u[::-1]
        self.y = np.concatenate((y_pre, np.asarray(y, dtype=float)))
        self.u = np.concatenate((u_pre, np.asarray(u, dtype=float)))

    def lags(self, series: np.ndarray, times: np.ndarray, depth: int) -> np.ndarray:
        """Rows x(t), x(t-1), ..., x(t-depth+1) for each t in times."""
        idx = (np.asarray(times) - self.t0 + self.pad)[:, None] - np.arange(depth)[None, :]
        return series[idx]

    def phi(self, times: np.ndarray, n: int, m: int, d: int) -> np.ndarray:
        """Regressors phi(t) = (y(t)..y(t-n+1), u(t)..u(t-m-d+1))."""
        return np.hstack((self.lags(self.y, times, n), self.lags(self.u, times, m + d)))

    def ybar(self, times: np.ndarray, L) -> np.ndarray:
        return self.lags(self.y, times, len(L)) @ np.asarray(L, dtype=float)


def filtered_noise(F, w_of, times: np.ndarray) -> np.ndarray:
    """wbar(t) = sum_i f_i w(t + d - i) for each t in times, d = len(F).

    w_of maps an integer array of times to disturbance samples.
    """
    F = np.asarray(F, dtype=float)
    d = len(F)
    shifts = np.asarray(times)[:, None] + d - np.arange(d)[None, :]
    return w_of(shifts.ravel()).reshape(shifts.shape) @ F


def predictor_residual(hist: History, theta, F, w_of, L, n, m, d, T) -> np.ndarray:
    """ybar(t) - phi(t-d)^T theta* - wbar(t-d) for t = t0+d .. t0+T."""
    t = hist.t0 + np.arange(d, T + 1)
    lagged = t - d
    return hist.ybar(t, L) - hist.phi(lagged, n, m, d) @ theta - filtered_noise(F, w_of, lagged)


def plant_residual(hist: History, a, b, w_of, d: int, T: int) -> np.ndarray:
    """y(t+1) + sum a_i y(t+1-i) - sum b_i u(t+1-d-i) - w(t+1) for t = t0 .. t0+T-1."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t1 = hist.t0 + np.arange(1, T + 1)
    ys = hist.lags(hist.y, t1, len(a) + 1) @ np.concatenate(([1.0], a))
    us = hist.lags(hist.u, t1 - d, len(b)) @ b
    return ys - us - w_of(t1)


def coefficient_array(spec, times: np.ndarray) -> np.ndarray:
    """One scheduled coefficient from its config-document entry, over times."""
    times = np.asarray(times, dtype=float)
    if isinstance(spec, (int, float)):
        return np.full(times.shape, float(spec))
    kind = spec["kind"]
    if kind == "constant":
        return np.full(times.shape, float(spec["value"]))
    if kind == "sinusoid":
        trig = np.cos if spec.get("trig", "cos") == "cos" else np.sin
        angle = float(spec["rate"]) * times + float(spec.get("phase", 0.0))
        return float(spec.get("offset", 0.0)) + float(spec["amplitude"]) * trig(angle)
    raise ValueError(f"no reference evaluator for coefficient kind {kind!r}")


def max_root_moduli(coeffs: np.ndarray) -> np.ndarray:
    """Largest root modulus of z^k p(1/z) for each row of coefficients (batched).

    Row r holds p_0 .. p_k in ascending powers of z^-1 with p_0 != 0; the
    roots are the eigenvalues of the companion matrix of p / p_0.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    rows, k = coeffs.shape[0], coeffs.shape[1] - 1
    if k == 0:
        return np.zeros(rows)
    comp = np.zeros((rows, k, k))
    comp[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    comp[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    return np.max(np.abs(np.linalg.eigvals(comp)), axis=1)


def spectral_floor(doc: dict) -> float:
    """Largest root modulus of L and of B(t) over the emission times of a run."""
    sim = doc["sim"]
    t0, steps = int(sim.get("t0", 0)), int(sim["steps"])
    floor = float(max_root_moduli(doc["reference"]["L"])[0])
    plant = doc["plant"]
    if "schedule" in plant:
        times = np.arange(t0, t0 + steps)
        b = np.stack([coefficient_array(s, times) for s in plant["schedule"]["b"]], axis=1)
    else:
        b = np.asarray([plant["b"]], dtype=float)
    return max(floor, float(np.max(max_root_moduli(b))))


def parameter_error(theta_hat: np.ndarray, theta) -> np.ndarray:
    """||theta_hat(t) - theta*|| per row."""
    return np.linalg.norm(np.asarray(theta_hat) - np.asarray(theta)[None, :], axis=1)


def rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(values)))) if len(values) else 0.0
