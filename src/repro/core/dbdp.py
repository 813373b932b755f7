"""DB-DP: the Debt-Based Decentralized Priority algorithm (Section V).

DB-DP is Algorithm 2 with the Glauber-dynamics swap bias of Eq. (14):

    mu_n(k) = exp(f(d_n^+(k)) p_n) / (R + exp(f(d_n^+(k)) p_n)),

where ``f`` is a debt influence function and ``R > 0`` a constant.  Links in
debt bias their coin toward claiming higher priority; under two-time-scale
separation the induced priority chain concentrates near the ELDF ordering
and the algorithm is feasibility-optimal (Theorem 1).

The paper's evaluation uses ``f(x) = log(max(1, 100 (x + 1)))`` and
``R = 10`` — the defaults here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .dp_protocol import DPProtocol, RowStackedConstantBias, SwapBias
from .influence import DebtInfluenceFunction, PaperLogInfluence

__all__ = [
    "GlauberDebtBias",
    "RowStackedGlauberBias",
    "stack_swap_biases",
    "DBDPPolicy",
    "PAPER_R",
]

#: The Glauber constant used in the paper's NS-3 evaluation.
PAPER_R: float = 10.0


@dataclass(frozen=True)
class GlauberDebtBias(SwapBias):
    """Eq. (14): ``mu_n = exp(f(d^+) p) / (R + exp(f(d^+) p))``.

    Computed as ``1 / (1 + R * exp(-f(d^+) p))`` for numerical stability
    with large debts, then clipped infinitesimally inside ``(0, 1)`` because
    Algorithm 2 requires a non-degenerate coin.
    """

    influence: DebtInfluenceFunction
    glauber_r: float = PAPER_R

    def __post_init__(self) -> None:
        if self.glauber_r <= 0:
            raise ValueError(f"R must be positive, got {self.glauber_r}")

    def mu(self, link: int, positive_debt: float, reliability: float) -> float:
        energy = self.influence(positive_debt) * reliability
        # 1 / (1 + R e^{-energy}) == e^{energy} / (R + e^{energy}).
        mu = 1.0 / (1.0 + self.glauber_r * math.exp(-min(energy, 700.0)))
        epsilon = 1e-12
        return min(max(mu, epsilon), 1.0 - epsilon)

    def mu_batch(
        self,
        links: np.ndarray,
        positive_debts: np.ndarray,
        reliabilities: np.ndarray,
    ) -> np.ndarray:
        # In-place chain over one buffer — this runs once per simulated
        # interval in the batch kernels, so the ~10 temporaries of the
        # naive expression are worth avoiding.  Same operations in the
        # same order as the scalar :meth:`mu`, so values are identical.
        energy = self.influence.value_array(
            np.asarray(positive_debts, dtype=float)
        )
        energy = energy * np.asarray(reliabilities, dtype=float)
        np.minimum(energy, 700.0, out=energy)
        np.negative(energy, out=energy)
        np.exp(energy, out=energy)
        energy *= self.glauber_r
        energy += 1.0
        np.divide(1.0, energy, out=energy)
        epsilon = 1e-12
        np.maximum(energy, epsilon, out=energy)
        np.minimum(energy, 1.0 - epsilon, out=energy)
        return energy


@dataclass(frozen=True)
class RowStackedGlauberBias(SwapBias):
    """Eq. (14) with one Glauber constant ``R`` per batch-stack row.

    Lets a fused batch stack mix DB-DP rows that differ in ``R`` (an
    ablation axis) while sharing one kernel pass.  Batch-only, like
    :class:`~repro.core.dp_protocol.RowStackedConstantBias`: arrays handed
    to :meth:`mu_batch` must have the stack row as their leading axis.
    """

    influence: DebtInfluenceFunction
    glauber_rs: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.glauber_rs:
            raise ValueError("need at least one row")
        for r in self.glauber_rs:
            if r <= 0:
                raise ValueError(f"R must be positive, got {r}")

    def mu(self, link: int, positive_debt: float, reliability: float) -> float:
        raise TypeError(
            "RowStackedGlauberBias is defined per batch row; it cannot "
            "serve a scalar (row-less) protocol"
        )

    def mu_batch(
        self,
        links: np.ndarray,
        positive_debts: np.ndarray,
        reliabilities: np.ndarray,
    ) -> np.ndarray:
        shape = np.shape(links)
        rs = np.asarray(self.glauber_rs, dtype=float)
        if len(shape) != 2 or shape[0] != rs.size:
            raise ValueError(
                f"expected (S, P) arrays with S = {rs.size} rows, got "
                f"shape {shape}"
            )
        energy = self.influence.value_array(
            np.asarray(positive_debts, dtype=float)
        ) * np.asarray(reliabilities, dtype=float)
        mu = 1.0 / (1.0 + rs[:, None] * np.exp(-np.minimum(energy, 700.0)))
        epsilon = 1e-12
        return np.clip(mu, epsilon, 1.0 - epsilon)


def stack_swap_biases(biases: Sequence[SwapBias]) -> SwapBias:
    """Collapse one swap bias per stack row into a single batch bias.

    Used by :class:`~repro.sim.batch_kernels.BatchDPKernel` when a fused
    stack supplies per-row policies: identical biases collapse to the
    shared instance; Glauber biases differing only in ``R`` become a
    :class:`RowStackedGlauberBias`; constant biases differing in ``mu``
    become a :class:`~repro.core.dp_protocol.RowStackedConstantBias`.
    Anything else raises ``TypeError`` so callers fall back to per-cell
    simulation rather than silently mis-batching.
    """
    biases = list(biases)
    if not biases:
        raise ValueError("need at least one bias")
    first = biases[0]
    if all(b == first for b in biases[1:]):
        return first
    from .dp_protocol import ConstantSwapBias

    if all(isinstance(b, GlauberDebtBias) for b in biases):
        influence = biases[0].influence
        if all(b.influence == influence for b in biases):
            return RowStackedGlauberBias(
                influence=influence,
                glauber_rs=tuple(b.glauber_r for b in biases),
            )
        raise TypeError(
            "cannot stack GlauberDebtBias rows with different influence "
            "functions; run those cells separately"
        )
    if all(isinstance(b, ConstantSwapBias) for b in biases):
        return RowStackedConstantBias(values=tuple(b.value for b in biases))
    raise TypeError(
        "cannot stack heterogeneous swap biases of types "
        f"{sorted({type(b).__name__ for b in biases})}; run those cells "
        "separately"
    )


class DBDPPolicy(DPProtocol):
    """The paper's decentralized algorithm with its evaluation defaults.

    Parameters
    ----------
    influence:
        Debt influence function ``f``; defaults to the paper's
        ``log(max(1, 100 (x + 1)))``.
    glauber_r:
        The constant ``R`` of Eq. (14); the paper uses 10.
    num_pairs:
        Swap pairs per interval (1 reproduces the paper; >1 is Remark 6).
    initial_priorities:
        Starting permutation; identity by default.
    """

    name = "DB-DP"

    def __init__(
        self,
        influence: DebtInfluenceFunction | None = None,
        glauber_r: float = PAPER_R,
        num_pairs: int = 1,
        initial_priorities: Optional[Sequence[int]] = None,
    ):
        influence = influence or PaperLogInfluence()
        super().__init__(
            bias=GlauberDebtBias(influence=influence, glauber_r=glauber_r),
            num_pairs=num_pairs,
            initial_priorities=initial_priorities,
        )
        self.influence = influence
        self.glauber_r = glauber_r


# ----------------------------------------------------------------------
# Registry descriptor (repro.core.registry).  DB-DP shares the DP
# family's config encoding and kernel; subclasses without their own
# descriptor (EstimatedDBDPPolicy) resolve here via the MRO.
# ----------------------------------------------------------------------
from . import registry as _registry  # noqa: E402  (self-registration)
from .dp_protocol import dp_family_config  # noqa: E402


def _dbdp_from_config(config: dict) -> "DBDPPolicy":
    bias = _registry.decode_config_value(config["bias"])
    return DBDPPolicy(
        influence=bias.influence,
        glauber_r=bias.glauber_r,
        num_pairs=int(config["num_pairs"]),
        initial_priorities=_registry.decode_config_value(config["initial"]),
    )


_registry.register(
    _registry.PolicyDescriptor(
        name="DB-DP",
        policy_class=DBDPPolicy,
        to_config=dp_family_config,
        from_config=_dbdp_from_config,
        batch_kernel="repro.sim.batch_kernels:BatchDPKernel",
    )
)
