"""Permutations and priority vectors (Definitions 7-9).

The paper represents transmission priorities by a permutation
``sigma = [sigma_1, ..., sigma_N]`` where ``sigma_n`` is the priority *index*
of link ``n`` (1 = highest priority).  This module provides the permutation
algebra the protocol and the Markov-chain analysis rely on:

* validity checks and conversions between "link -> priority" and
  "priority -> link" views,
* adjacent transpositions (Definition 8) — the only moves the DP protocol's
  swap handshake can make,
* symmetric difference (Definition 9),
* enumeration of the symmetric group for the exact chain analysis.

Priorities are 1-based to match the paper; link identifiers are 0-based
Python indices.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "is_priority_vector",
    "validate_priority_vector",
    "identity_priorities",
    "priority_to_link_order",
    "link_order_to_priorities",
    "symmetric_difference",
    "apply_adjacent_swap",
    "adjacent_swap_partners",
    "apply_swap_to_order",
    "is_adjacent_transposition",
    "enumerate_priority_vectors",
    "random_priority_vector",
    "inversions",
]


def is_priority_vector(sigma: Sequence[int]) -> bool:
    """True iff ``sigma`` is a permutation of ``{1, ..., N}``."""
    n = len(sigma)
    return n > 0 and sorted(sigma) == list(range(1, n + 1))


def validate_priority_vector(sigma: Sequence[int]) -> Tuple[int, ...]:
    """Return ``sigma`` as a tuple, raising ``ValueError`` if invalid."""
    sig = tuple(int(s) for s in sigma)
    if not is_priority_vector(sig):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{len(sig)}")
    return sig


def identity_priorities(n: int) -> Tuple[int, ...]:
    """Priority vector where link ``i`` holds priority ``i + 1``."""
    if n <= 0:
        raise ValueError(f"need at least one link, got n={n}")
    return tuple(range(1, n + 1))


def priority_to_link_order(sigma: Sequence[int]) -> Tuple[int, ...]:
    """Map a priority vector to the transmission order of links.

    Returns a tuple ``order`` where ``order[j]`` is the (0-based) link that
    holds priority ``j + 1``; i.e. ``order[0]`` transmits first.
    """
    sig = validate_priority_vector(sigma)
    order = [0] * len(sig)
    for link, priority in enumerate(sig):
        order[priority - 1] = link
    return tuple(order)


def link_order_to_priorities(order: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`priority_to_link_order`.

    ``order`` lists links from highest to lowest priority; the result maps
    each link to its 1-based priority index.
    """
    n = len(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"{order!r} is not an ordering of links 0..{n - 1}")
    sigma = [0] * n
    for position, link in enumerate(order):
        sigma[link] = position + 1
    return tuple(sigma)


def symmetric_difference(
    sigma: Sequence[int], sigma_prime: Sequence[int]
) -> Tuple[int, ...]:
    """Links (0-based) whose priority differs between the two vectors.

    This is Definition 9's ``sigma (triangle) sigma'`` expressed over link
    indices.
    """
    if len(sigma) != len(sigma_prime):
        raise ValueError("permutations must have equal length")
    return tuple(i for i, (a, b) in enumerate(zip(sigma, sigma_prime)) if a != b)


def is_adjacent_transposition(
    sigma: Sequence[int], sigma_prime: Sequence[int]
) -> bool:
    """True iff the two vectors differ by one adjacent transposition.

    Per Definition 8, an *adjacent* transposition exchanges two entries whose
    priority values differ by exactly 1.
    """
    diff = symmetric_difference(sigma, sigma_prime)
    if len(diff) != 2:
        return False
    i, j = diff
    return (
        sigma[i] == sigma_prime[j]
        and sigma[j] == sigma_prime[i]
        and abs(sigma[i] - sigma[j]) == 1
    )


def adjacent_swap_partners(sigma: Sequence[int], c: int) -> Tuple[int, int]:
    """Links currently holding priorities ``c`` and ``c + 1``.

    ``c`` is the candidate index ``C(k)`` from Step 1 of Algorithm 2,
    ``1 <= c <= N - 1``.  Returns (0-based) link indices
    ``(link_at_c, link_at_c_plus_1)``.
    """
    sig = validate_priority_vector(sigma)
    if not 1 <= c <= len(sig) - 1:
        raise ValueError(f"candidate index must be in [1, {len(sig) - 1}], got {c}")
    link_down = sig.index(c)
    link_up = sig.index(c + 1)
    return link_down, link_up


def apply_adjacent_swap(sigma: Sequence[int], c: int) -> Tuple[int, ...]:
    """Return the permutation with priorities ``c`` and ``c + 1`` exchanged."""
    link_down, link_up = adjacent_swap_partners(sigma, c)
    out = list(validate_priority_vector(sigma))
    out[link_down], out[link_up] = out[link_up], out[link_down]
    return tuple(out)


def apply_swap_to_order(order: List[int], c: int) -> Tuple[int, int]:
    """Apply the adjacent swap at candidate ``c`` to a mutable link order.

    ``order`` is the priority->link view (``order[j]`` holds priority
    ``j + 1``, as produced by :func:`priority_to_link_order`, but as a
    mutable list).  Exchanges the links at priorities ``c`` and ``c + 1``
    in place and returns ``(link_down, link_up)`` — the links that held
    priorities ``c`` and ``c + 1`` *before* the swap.

    This is the O(1) incremental counterpart of
    :func:`apply_adjacent_swap`: engines that maintain the order view
    across intervals (scalar :class:`~repro.core.dp_protocol.DPProtocol`,
    the batch kernel's incremental priority-state path) apply each
    accepted swap here instead of re-deriving the order from ``sigma``.
    """
    if not 1 <= c <= len(order) - 1:
        raise ValueError(
            f"candidate index must be in [1, {len(order) - 1}], got {c}"
        )
    link_down = order[c - 1]
    link_up = order[c]
    order[c - 1] = link_up
    order[c] = link_down
    return link_down, link_up


def enumerate_priority_vectors(n: int) -> Iterator[Tuple[int, ...]]:
    """Yield every permutation of ``{1, ..., n}`` (the state space S_N).

    Only intended for small ``n`` (the chain analysis caps at ``n! = 5040``
    states by default).
    """
    if n <= 0:
        raise ValueError(f"need at least one link, got n={n}")
    return itertools.permutations(range(1, n + 1))


def random_priority_vector(n: int, rng) -> Tuple[int, ...]:
    """Uniformly random priority vector drawn from ``rng`` (numpy Generator)."""
    perm = rng.permutation(n) + 1
    return tuple(int(v) for v in perm)


def inversions(sigma: Sequence[int]) -> int:
    """Number of inversions — distance to identity in adjacent swaps.

    Used by convergence analyses: each DP interval performs at most one
    adjacent transposition, so reaching a target ordering from ``sigma``
    takes at least ``inversions`` relative to that target.
    """
    sig = validate_priority_vector(sigma)
    count = 0
    for a, b in itertools.combinations(range(len(sig)), 2):
        if (a < b) and (sig[a] > sig[b]):
            count += 1
    return count
