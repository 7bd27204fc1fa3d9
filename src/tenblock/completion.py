"""Tensor completion from randomly observed entries by singular value
projection: gradient steps on the observed cells alternating with
truncation by ``tucker.hosvd`` (one ST-HOSVD pass) at slowly escalating
multilinear ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor_core import _integer, chebyshev_norm
from .tucker import hosvd


@dataclass(frozen=True)
class ObservationMask:
    """Observed multi-indices (one row per cell) of a tensor of ``shape``."""

    shape: tuple[int, ...]
    indices: np.ndarray
    seed: int | None = None

    def dense(self) -> np.ndarray:
        omega = np.zeros(self.shape, dtype=bool)
        omega[tuple(self.indices.T)] = True
        return omega

    @property
    def count(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class SvpParams:
    """Knobs of the projection iteration.

    target_ranks caps the escalation; eps is the stopping threshold on the
    masked relative Frobenius error; delta the per-round rank increment;
    eta the gradient step (1 replaces observed entries exactly).
    """

    target_ranks: tuple[int, ...]
    eps: float = 1e-3
    delta: int = 1
    eta: float = 1.0
    max_iters: int = 500
    trace: bool = False

    def __post_init__(self):
        object.__setattr__(self, "target_ranks",
                           tuple(_integer("target rank", r) for r in self.target_ranks))
        if not self.target_ranks or any(r < 1 for r in self.target_ranks):
            raise ValueError("target ranks must be positive")
        for name in ("delta", "max_iters"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("eps", "eta"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class SvpResult:
    completion: np.ndarray
    converged: bool
    n_iters: int
    rel_error: float
    trace: list[tuple[float, float]] | None = None


def random_mask(shape: Sequence[int], target_cr: float, seed: int) -> ObservationMask:
    """Uniform sample of floor(N / target_cr) cells without replacement."""
    shape = tuple(int(n) for n in shape)
    n_total = int(np.prod(shape, dtype=np.int64))
    if target_cr < 1:
        raise ValueError("target_cr must be >= 1")
    count = int(n_total // target_cr)
    if count < 1:
        raise ValueError(f"target_cr {target_cr} leaves no observed cells")
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(n_total, size=count, replace=False))
    indices = np.stack(np.unravel_index(flat, shape), axis=1)
    return ObservationMask(shape, indices, seed)


def update_rank(r: Sequence[int], delta: int, caps: Sequence[int]) -> list[int]:
    return [min(int(c), int(x) + int(delta)) for x, c in zip(r, caps)]


def svp_complete(
    observed: np.ndarray,
    mask: ObservationMask,
    params: SvpParams,
    reference: np.ndarray | None = None,
) -> SvpResult:
    """Complete a tensor from its entries on the mask.

    ``observed`` is dense; values off the mask are ignored.  Starts from
    the zero tensor at ranks [1, ..., 1] and iterates
    ``X <- HOSVD_r(X - eta * P(X - data))`` with ranks escalating by delta
    per round up to the caps, until the masked relative Frobenius error
    drops below eps or the iteration budget runs out.  Non-convergence is
    reported in the flag, never raised; the best iterate is returned.

    The trace, when requested, records per round the masked relative
    Frobenius error and a Chebyshev error: against ``reference`` over its
    non-NaN cells when given (the interesting quantity when ground truth
    exists), else over the observed cells only.
    """
    observed = np.asarray(observed, dtype=np.float64)
    if observed.shape != mask.shape:
        raise ValueError(f"data shape {observed.shape} != mask shape {mask.shape}")
    if mask.count == 0:
        raise ValueError("empty observation mask")
    omega = mask.dense()
    data = np.where(omega, observed, 0.0)
    if not np.all(np.isfinite(data)):
        raise ValueError("observed values must be finite")
    norm_obs = float(np.linalg.norm(data))
    if norm_obs == 0.0:
        raise ValueError("observed entries are all zero")

    caps = params.target_ranks
    if len(caps) != observed.ndim:
        raise ValueError(f"{len(caps)} rank caps for {observed.ndim} modes")
    for k, (c, n) in enumerate(zip(caps, observed.shape)):
        if c > n:
            raise ValueError(f"rank cap {c} of mode {k} exceeds its extent {n}")
    ranks = [1] * observed.ndim
    xh = np.zeros_like(data)
    trace: list[tuple[float, float]] | None = [] if params.trace else None
    best_err = np.inf
    best_x = xh
    converged = False
    n_iters = 0
    while True:
        resid = np.where(omega, xh - data, 0.0)
        err = float(np.linalg.norm(resid)) / norm_obs
        if err < best_err:
            best_err = err
            best_x = xh
        if err < params.eps:
            converged = True
            break
        if n_iters >= params.max_iters:
            break
        xh = hosvd(xh - params.eta * resid, ranks).reconstruct()
        ranks = update_rank(ranks, params.delta, caps)
        n_iters += 1
        if trace is not None:
            r_new = np.where(omega, xh - data, 0.0)
            if reference is not None:
                cheb = chebyshev_norm(xh - reference)
            else:
                cheb = chebyshev_norm(r_new, omega)
            trace.append((float(np.linalg.norm(r_new)) / norm_obs, cheb))
    return SvpResult(best_x, converged, n_iters, best_err, trace)
