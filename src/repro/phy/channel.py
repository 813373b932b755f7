"""Unreliable-channel models (Section II-A) and their batchable state.

The paper's model: if link ``n`` transmits without interference, the attempt
succeeds with probability ``p_n > 0``, independently across attempts
(:class:`BernoulliChannel`).  If multiple links transmit simultaneously a
collision occurs and *all* transmissions fail — collision semantics live in
the simulators; channel models only answer "did this interference-free
attempt succeed?".

Two extensions deliberately violate the static i.i.d. assumption and say
so:

* :class:`GilbertElliottChannel` — two-state Markov burst losses.  The
  per-link GOOD/BAD state evolves **once per interval**
  (:meth:`~ChannelModel.begin_interval`); within an interval attempts are
  i.i.d. at the current state's success probability.  Interval timescales
  dominate coherence times in the deadline-traffic regime the paper
  targets, and the per-interval semantics is what makes the model
  batchable: a whole interval's retry counts are geometric at one known
  probability.
* :class:`TimeVaryingReliability` — deterministic ``p_n(t)`` schedules
  (ramps, duty cycles, mobility-style drift) over the interval index.

Every model answers the same capability questions (``has_state``,
``supports_batch_state``, ``state_uses_rng``, ``iid_within_interval``) so
engines dispatch on declared capabilities, never on channel types, and the
batch engines evolve state as vectorized ``(rows, links)`` planes through
:meth:`ChannelModel.stack_rows` / :class:`ChannelStateRows`.

Channel models with parameters are frozen dataclasses: the registry's
config codec (:func:`repro.core.registry.encode_config_value`) fingerprints
them field-by-field for the sweep cache, exactly like policy configs.
Mutable evolution state (the Gilbert–Elliott GOOD/BAD vector, the
time-varying interval counter) is deliberately *not* a dataclass field:
fingerprints, equality and the codec cover parameters only.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "ChannelModel",
    "ChannelStateRows",
    "BernoulliChannel",
    "GilbertElliottChannel",
    "TimeVaryingReliability",
    "channel_from_spec",
]


class ChannelStateRows(ABC):
    """Vectorized channel state for a stack of replication rows.

    Built by :meth:`ChannelModel.stack_rows` (one channel per row, all of
    one family); owned by the batch draw pipeline.  :meth:`evolve`
    advances every row's state by **one interval** and returns the
    ``(rows, links)`` success-probability plane in force for that
    interval; :meth:`evolve_block` amortizes the per-call overhead over a
    whole draw chunk.
    """

    #: Whether evolution consumes random draws (Markov state) or is a
    #: deterministic function of the interval index (schedules).
    uses_rng: bool = False

    @property
    @abstractmethod
    def min_success_prob(self) -> float:
        """The smallest success probability any row/link can reach.

        The draw pipeline sizes its geometric-scale dtype gate with it;
        must be strictly positive for the state to be batchable.
        """

    @abstractmethod
    def evolve(self, rng: Optional[np.random.Generator]) -> np.ndarray:
        """Advance one interval; return the ``(rows, links)`` prob plane."""

    def evolve_block(
        self,
        depth: int,
        rng: Optional[np.random.Generator],
        out: np.ndarray,
    ) -> np.ndarray:
        """Advance ``depth`` intervals, filling ``out`` (depth, rows, links)."""
        for d in range(depth):
            out[d] = self.evolve(rng)
        return out


class ChannelModel(ABC):
    """Per-attempt success model for interference-free transmissions.

    Every model exposes ``num_links`` (the number of links covered), the
    stationary :attr:`reliabilities`, and per-attempt :meth:`attempt`
    sampling.  Stateful models additionally evolve once per interval via
    :meth:`begin_interval` (the scalar engines call it; the batch engines
    evolve the equivalent vectorized state through :meth:`stack_rows`).
    """

    @property
    @abstractmethod
    def reliabilities(self) -> np.ndarray:
        """Long-run per-attempt success probability ``p_n`` of each link.

        Debt-based policies configure their bias weights from these
        stationary values on every engine — devices know their long-run
        ``p_n`` estimate, not the instantaneous channel state.
        """

    @abstractmethod
    def attempt(self, link: int, rng: np.random.Generator) -> bool:
        """Draw the outcome of one interference-free attempt by ``link``."""

    # -- capability surface (engines dispatch on these, never on types) ----
    @property
    def has_state(self) -> bool:
        """Whether the model carries per-interval state to reset/evolve."""
        return False

    @property
    def state_uses_rng(self) -> bool:
        """Whether :meth:`begin_interval` consumes random draws."""
        return False

    @property
    def supports_batch_state(self) -> bool:
        """Whether :meth:`stack_rows` can evolve this model vectorized.

        ``False`` degrades honestly to the scalar engine (or sync-mode
        clones); models whose reachable success probabilities include 0
        must decline (geometric retry draws need ``p > 0``).
        """
        return False

    @property
    def iid_within_interval(self) -> bool:
        """Whether attempts within one interval are i.i.d. at
        :meth:`success_prob`.

        Enables the vectorized geometric retry path in
        :func:`repro.core.policies.serve_link_attempts`; models with
        per-attempt memory keep the faithful attempt-by-attempt path.
        """
        return False

    # -- per-interval state (no-ops for memoryless models) -----------------
    def reset_state(self) -> None:
        """Return the model to its initial state (run construction)."""

    def begin_interval(self, rng: np.random.Generator) -> None:
        """Evolve the state by one interval (called before the interval)."""

    def current_probs(self) -> np.ndarray:
        """The per-link success probabilities in force this interval."""
        return self.reliabilities

    def success_prob(self, link: int) -> float:
        """This interval's success probability of ``link`` (scalar)."""
        return float(self.current_probs()[link])

    # -- batch-state construction ------------------------------------------
    @classmethod
    def stack_rows(
        cls, channels: Sequence["ChannelModel"]
    ) -> Optional[ChannelStateRows]:
        """Vectorized state for one channel per replication row.

        ``None`` for memoryless families: the draw pipeline keeps its
        static stationary scales, bit-identical to the pre-state-layer
        behavior.
        """
        return None

    def init_state_batch(self, num_rows: int) -> Optional[ChannelStateRows]:
        """:meth:`stack_rows` over ``num_rows`` copies of this model."""
        return type(self).stack_rows((self,) * int(num_rows))

    def evolve_batch(
        self, state: ChannelStateRows, rng: Optional[np.random.Generator]
    ) -> np.ndarray:
        """Advance ``state`` one interval; the ``(rows, links)`` plane."""
        if state is None:
            raise TypeError(
                f"{type(self).__name__} is memoryless and has no batch "
                "state to evolve"
            )
        return state.evolve(rng)

    # -- codec-style derivations -------------------------------------------
    def with_stationary_reliability(self) -> "BernoulliChannel":
        """The memoryless i.i.d. channel matched to this model's
        stationary reliabilities (the fair baseline for burst-robustness
        comparisons)."""
        return BernoulliChannel(
            success_probs=tuple(float(p) for p in self.reliabilities)
        )

    def take_links(
        self, links: Sequence[int], pad: int = 0
    ) -> "ChannelModel":
        """Rebuild the model restricted to ``links`` plus ``pad``
        perfectly-reliable dead links (the topology layer's per-cell
        slicing).  Families whose per-link laws are not independent must
        raise."""
        raise TypeError(
            f"{type(self).__name__} cannot be sliced per cell; the "
            "topology layer needs per-link-independent channels"
        )


@dataclass(frozen=True)
class BernoulliChannel(ChannelModel):
    """The paper's static unreliable channel: i.i.d. Bernoulli(``p_n``)."""

    success_probs: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.success_probs:
            raise ValueError("need at least one link")
        for p in self.success_probs:
            if not 0.0 < p <= 1.0:
                raise ValueError(
                    f"the paper requires p_n in (0, 1], got {p}"
                )

    @classmethod
    def symmetric(cls, num_links: int, p: float) -> "BernoulliChannel":
        return cls(success_probs=(p,) * num_links)

    @property
    def num_links(self) -> int:
        return len(self.success_probs)

    @property
    def reliabilities(self) -> np.ndarray:
        return np.asarray(self.success_probs, dtype=float)

    @property
    def iid_within_interval(self) -> bool:
        return True

    def success_prob(self, link: int) -> float:
        return float(self.success_probs[link])

    def attempt(self, link: int, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.success_probs[link])

    def with_stationary_reliability(self) -> "BernoulliChannel":
        return self

    def take_links(
        self, links: Sequence[int], pad: int = 0
    ) -> "BernoulliChannel":
        probs = tuple(float(self.success_probs[l]) for l in links)
        return BernoulliChannel(success_probs=probs + (1.0,) * int(pad))


def _as_link_vector(value, num_links: int, name: str) -> np.ndarray:
    """A ``(num_links,)`` float64 view of a scalar-or-tuple parameter."""
    if isinstance(value, tuple):
        if len(value) != num_links:
            raise ValueError(
                f"{name} covers {len(value)} links, channel has {num_links}"
            )
        return np.asarray(value, dtype=float)
    return np.full(num_links, float(value))


class _GilbertElliottRows(ChannelStateRows):
    """Per-row Gilbert–Elliott Markov state, evolved as ``(R, N)`` planes."""

    uses_rng = True

    def __init__(
        self,
        p_good: np.ndarray,
        p_bad: np.ndarray,
        stay_good: np.ndarray,
        stay_bad: np.ndarray,
    ):
        self._pg = p_good
        self._pb = p_bad
        self._sg = stay_good
        self._sb = stay_bad
        # Every row starts all-GOOD, matching the scalar model's
        # reset_state; the first begin_interval/evolve happens before
        # interval 0 on every engine, so distributions line up exactly.
        self._good = np.ones(p_good.shape, dtype=bool)
        self._stay = np.empty(p_good.shape)

    @property
    def min_success_prob(self) -> float:
        return float(min(self._pg.min(), self._pb.min()))

    def _step(self, uniforms: np.ndarray) -> None:
        np.copyto(self._stay, self._sb)
        np.copyto(self._stay, self._sg, where=self._good)
        self._good ^= uniforms >= self._stay

    def evolve(self, rng: Optional[np.random.Generator]) -> np.ndarray:
        self._step(rng.random(self._good.shape))
        return np.where(self._good, self._pg, self._pb)

    def evolve_block(
        self,
        depth: int,
        rng: Optional[np.random.Generator],
        out: np.ndarray,
    ) -> np.ndarray:
        # One generator call per chunk: (depth, R, N) uniforms consumed in
        # interval order, then depth cheap (R, N) vector steps.
        u = rng.random((depth,) + self._good.shape)
        for d in range(depth):
            self._step(u[d])
            np.copyto(out[d], self._pb)
            np.copyto(out[d], self._pg, where=self._good)
        return out


@dataclass(frozen=True)
class GilbertElliottChannel(ChannelModel):
    """Two-state burst-loss channel (GOOD/BAD) per link.

    **Extension beyond the paper's model** — success probabilities are
    correlated across intervals.  Each link's state evolves once per
    interval (:meth:`begin_interval`): stay in the current state with
    ``p_stay_good``/``p_stay_bad``, then every attempt that interval
    succeeds i.i.d. with ``p_good``/``p_bad``.  ``reliabilities`` reports
    the stationary success probability so debt-based policies can still
    be configured consistently.

    Parameters accept one scalar shared by all links or a per-link tuple
    (heterogeneous cells, topology pads).  All parameters are dataclass
    fields; the Markov state is not (fingerprints cover parameters only).
    """

    num_links: int
    p_good: Union[float, Tuple[float, ...]] = 0.95
    p_bad: Union[float, Tuple[float, ...]] = 0.2
    p_stay_good: Union[float, Tuple[float, ...]] = 0.95
    p_stay_bad: Union[float, Tuple[float, ...]] = 0.8

    def __post_init__(self) -> None:
        if self.num_links < 1:
            raise ValueError("need at least one link")
        vecs = {}
        for name in ("p_good", "p_bad", "p_stay_good", "p_stay_bad"):
            value = getattr(self, name)
            if isinstance(value, (list, tuple, np.ndarray)):
                value = tuple(float(v) for v in value)
            else:
                value = float(value)
            object.__setattr__(self, name, value)
            vec = _as_link_vector(value, self.num_links, name)
            if np.any(vec < 0.0) or np.any(vec > 1.0):
                raise ValueError(
                    f"{name} must lie in [0, 1], got {value}"
                )
            vecs[name] = vec
        if np.any((vecs["p_good"] <= 0) & (vecs["p_bad"] <= 0)):
            raise ValueError(
                "at least one state must allow success (p_n > 0)"
            )
        object.__setattr__(self, "_pg", vecs["p_good"])
        object.__setattr__(self, "_pb", vecs["p_bad"])
        object.__setattr__(self, "_sg", vecs["p_stay_good"])
        object.__setattr__(self, "_sb", vecs["p_stay_bad"])
        object.__setattr__(self, "_good", np.ones(self.num_links, dtype=bool))

    # ------------------------------------------------------------------
    @property
    def reliabilities(self) -> np.ndarray:
        leave_good = 1.0 - self._sg
        leave_bad = 1.0 - self._sb
        denom = leave_good + leave_bad
        # denom == 0: both states absorbing -> frozen in the GOOD start.
        pi_good = np.where(denom > 0, leave_bad / np.where(denom > 0, denom, 1.0), 1.0)
        return pi_good * self._pg + (1.0 - pi_good) * self._pb

    @property
    def has_state(self) -> bool:
        return True

    @property
    def state_uses_rng(self) -> bool:
        return True

    @property
    def supports_batch_state(self) -> bool:
        # Geometric retry scales need p > 0 in every reachable state.
        return bool(np.all(self._pg > 0.0) and np.all(self._pb > 0.0))

    @property
    def iid_within_interval(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        self._good.fill(True)

    def begin_interval(self, rng: np.random.Generator) -> None:
        stay = np.where(self._good, self._sg, self._sb)
        # In-place via ufunc out=: ``^=`` would rebind the (frozen) field.
        np.logical_xor(
            self._good, rng.random(self.num_links) >= stay, out=self._good
        )

    def current_probs(self) -> np.ndarray:
        return np.where(self._good, self._pg, self._pb)

    def success_prob(self, link: int) -> float:
        if not 0 <= link < self.num_links:
            raise IndexError(
                f"link {link} out of range [0, {self.num_links})"
            )
        return float(self._pg[link] if self._good[link] else self._pb[link])

    def attempt(self, link: int, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.success_prob(link))

    # ------------------------------------------------------------------
    @classmethod
    def stack_rows(
        cls, channels: Sequence["ChannelModel"]
    ) -> ChannelStateRows:
        for ch in channels:
            if not ch.supports_batch_state:
                raise TypeError(
                    f"{type(ch).__name__} declines batch state (a state "
                    "with p = 0 cannot feed geometric retry draws); run "
                    "it on the scalar engine"
                )
        return _GilbertElliottRows(
            p_good=np.stack([ch._pg for ch in channels]),
            p_bad=np.stack([ch._pb for ch in channels]),
            stay_good=np.stack([ch._sg for ch in channels]),
            stay_bad=np.stack([ch._sb for ch in channels]),
        )

    def take_links(
        self, links: Sequence[int], pad: int = 0
    ) -> "GilbertElliottChannel":
        pad = int(pad)

        def pick(vec: np.ndarray, pad_value: float) -> Tuple[float, ...]:
            return tuple(float(vec[l]) for l in links) + (pad_value,) * pad

        # Pads succeed in either state and freeze GOOD: reliability 1.
        return GilbertElliottChannel(
            num_links=len(tuple(links)) + pad,
            p_good=pick(self._pg, 1.0),
            p_bad=pick(self._pb, 1.0),
            p_stay_good=pick(self._sg, 1.0),
            p_stay_bad=pick(self._sb, 0.0),
        )


#: The deterministic modulation profiles TimeVaryingReliability knows.
TIME_VARYING_PROFILES = ("ramp", "duty", "drift")


class _TimeVaryingRows(ChannelStateRows):
    """Deterministic per-row schedules: no RNG, just an interval counter."""

    uses_rng = False

    def __init__(self, channels: Sequence["TimeVaryingReliability"]):
        # Rows sharing one schedule are computed once per interval.
        groups = []
        for i, ch in enumerate(channels):
            for rep, rows in groups:
                if ch == rep:
                    rows.append(i)
                    break
            else:
                groups.append((ch, [i]))
        self._groups = [(ch, np.asarray(rows)) for ch, rows in groups]
        self._shape = (len(channels), channels[0].num_links)
        self._k = 0

    @property
    def min_success_prob(self) -> float:
        return min(ch.min_prob for ch, _ in self._groups)

    def evolve(self, rng: Optional[np.random.Generator]) -> np.ndarray:
        out = np.empty(self._shape)
        for ch, rows in self._groups:
            out[rows] = ch.probs_at(self._k)
        self._k += 1
        return out


@dataclass(frozen=True)
class TimeVaryingReliability(ChannelModel):
    """Deterministic time-varying reliability ``p_n(t)`` schedules.

    **Extension beyond the paper's model** — the per-attempt success
    probability is a known function of the interval index ``t`` (mobility
    drift, duty-cycled interferers, slow fades):

    ``p_n(t) = clip(base_n - amplitude * m(t), floor, 1)``

    with the modulation ``m(t)`` over each ``period`` of intervals:

    * ``"ramp"``  — sawtooth ``(t mod period) / period``: degradation
      grows linearly, then snaps back;
    * ``"duty"``  — square wave: nominal for the first half period,
      degraded for the second;
    * ``"drift"`` — raised cosine ``0.5 - 0.5 cos(2 pi t / period)``:
      smooth mobility-style drift out and back.

    Evolution consumes **no** randomness, so the schedule is the same
    under every draw discipline on every engine.
    ``reliabilities`` reports the time-averaged ``p_n`` over one period.
    """

    base: Tuple[float, ...]
    profile: str = "drift"
    period: int = 100
    amplitude: float = 0.2
    floor: float = 0.05

    def __post_init__(self) -> None:
        base = tuple(float(p) for p in self.base)
        object.__setattr__(self, "base", base)
        if not base:
            raise ValueError("need at least one link")
        for p in base:
            if not 0.0 < p <= 1.0:
                raise ValueError(f"base p_n must lie in (0, 1], got {p}")
        if self.profile not in TIME_VARYING_PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; expected one of "
                f"{TIME_VARYING_PROFILES}"
            )
        if int(self.period) < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        object.__setattr__(self, "period", int(self.period))
        if not 0.0 <= float(self.amplitude) <= 1.0:
            raise ValueError(
                f"amplitude must lie in [0, 1], got {self.amplitude}"
            )
        object.__setattr__(self, "amplitude", float(self.amplitude))
        if not 0.0 < float(self.floor) <= 1.0:
            raise ValueError(
                f"floor must lie in (0, 1], got {self.floor}"
            )
        object.__setattr__(self, "floor", float(self.floor))
        object.__setattr__(self, "_base_vec", np.asarray(base))
        # One period of planes, precomputed: probs_at is a row lookup.
        table = np.empty((self.period, len(base)))
        for k in range(self.period):
            table[k] = np.clip(
                self._base_vec - self.amplitude * self._modulation(k),
                self.floor,
                1.0,
            )
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_next_k", 0)
        object.__setattr__(self, "_probs", table[0].copy())

    def _modulation(self, k: int) -> float:
        phase = (int(k) % self.period) / self.period
        if self.profile == "ramp":
            return phase
        if self.profile == "duty":
            return 1.0 if phase >= 0.5 else 0.0
        return 0.5 - 0.5 * float(np.cos(2.0 * np.pi * phase))

    @classmethod
    def symmetric(
        cls, num_links: int, p: float, **kwargs
    ) -> "TimeVaryingReliability":
        return cls(base=(float(p),) * int(num_links), **kwargs)

    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        return len(self.base)

    @property
    def reliabilities(self) -> np.ndarray:
        return self._table.mean(axis=0)

    @property
    def min_prob(self) -> float:
        """The smallest scheduled success probability."""
        return float(self._table.min())

    def probs_at(self, k: int) -> np.ndarray:
        """The ``(num_links,)`` plane in force during interval ``k``."""
        return self._table[int(k) % self.period]

    @property
    def has_state(self) -> bool:
        return True

    @property
    def state_uses_rng(self) -> bool:
        return False

    @property
    def supports_batch_state(self) -> bool:
        return self.min_prob > 0.0

    @property
    def iid_within_interval(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        object.__setattr__(self, "_next_k", 0)
        np.copyto(self._probs, self._table[0])

    def begin_interval(self, rng: np.random.Generator) -> None:
        np.copyto(self._probs, self.probs_at(self._next_k))
        object.__setattr__(self, "_next_k", self._next_k + 1)

    def current_probs(self) -> np.ndarray:
        return self._probs

    def attempt(self, link: int, rng: np.random.Generator) -> bool:
        if not 0 <= link < self.num_links:
            raise IndexError(
                f"link {link} out of range [0, {self.num_links})"
            )
        return bool(rng.random() < self._probs[link])

    # ------------------------------------------------------------------
    @classmethod
    def stack_rows(
        cls, channels: Sequence["ChannelModel"]
    ) -> ChannelStateRows:
        for ch in channels:
            if not ch.supports_batch_state:
                raise TypeError(
                    f"{type(ch).__name__} declines batch state (a "
                    "scheduled p = 0 cannot feed geometric retry draws)"
                )
        return _TimeVaryingRows(channels)

    def take_links(
        self, links: Sequence[int], pad: int = 0
    ) -> "TimeVaryingReliability":
        base = tuple(float(self._base_vec[l]) for l in links)
        return TimeVaryingReliability(
            base=base + (1.0,) * int(pad),
            profile=self.profile,
            period=self.period,
            amplitude=self.amplitude,
            floor=self.floor,
        )


def channel_from_spec(text: str, num_links: int) -> ChannelModel:
    """Build a channel model from a CLI-style spec string.

    Formats (fields are colon-separated)::

        bernoulli:P                  i.i.d. Bernoulli(P) on every link
        ge:P_GB:P_BG[:P_GOOD:P_BAD]  Gilbert-Elliott with transition
                                     probabilities P_GB (good->bad) and
                                     P_BG (bad->good); success probs
                                     default to 0.95 / 0.2
        tv:PROFILE:PERIOD:AMPLITUDE[:BASE]
                                     TimeVaryingReliability (profile in
                                     {ramp, duty, drift}; BASE defaults
                                     to 0.9)
    """
    parts = str(text).split(":")
    kind, args = parts[0].lower(), parts[1:]
    try:
        if kind == "bernoulli":
            (p,) = args
            return BernoulliChannel.symmetric(num_links, float(p))
        if kind == "ge":
            if len(args) == 2:
                p_gb, p_bg = (float(a) for a in args)
                p_good, p_bad = 0.95, 0.2
            else:
                p_gb, p_bg, p_good, p_bad = (float(a) for a in args)
            return GilbertElliottChannel(
                num_links,
                p_good=p_good,
                p_bad=p_bad,
                p_stay_good=1.0 - p_gb,
                p_stay_bad=1.0 - p_bg,
            )
        if kind == "tv":
            if len(args) == 3:
                profile, period, amplitude = args
                base = 0.9
            else:
                profile, period, amplitude, base = args
            return TimeVaryingReliability.symmetric(
                num_links,
                float(base),
                profile=profile,
                period=int(period),
                amplitude=float(amplitude),
            )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad channel spec {text!r}: {exc}") from exc
    raise ValueError(
        f"unknown channel kind {kind!r} in {text!r}; expected "
        "'bernoulli:p', 'ge:p_gb:p_bg[:p_good:p_bad]' or "
        "'tv:profile:period:amplitude[:base]'"
    )
