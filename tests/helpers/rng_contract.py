"""Pin a kernel's RNG-stream consumption (the block-draw contract).

Every batched kernel in this codebase documents exactly what it consumes
from the shared ``np.random.Generator`` — either *nothing* (the secure
comparison kernels: simulated table OTs need no masking randomness) or an
explicit block draw that is bit-for-bit the scalar loop's consumption (the
batched 1-out-of-2 OT draws ``2 * n`` pad values).  Prose contracts rot;
:func:`assert_stream_contract` turns them into executable assertions.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

#: A replay of the documented draw pattern on a twin generator.
DrawReplay = Callable[[np.random.Generator], None]


def clone_generator(rng: np.random.Generator) -> np.random.Generator:
    """Return an independent generator positioned at ``rng``'s exact state."""
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def drain_churn_block(
    rng: np.random.Generator, num_devices: int, num_rounds: int
) -> None:
    """Replay ``FaultPlan.compile``'s documented churn draws and discard them.

    The churn block is one ``(num_devices,)`` uniform draw for the stationary
    initial state plus one ``(num_rounds - 1, num_devices)`` block for the
    Markov transitions (skipped when ``num_rounds <= 1``) — *independent of
    the probability values*, including the 0.0/1.0 boundaries.  Positioning a
    twin generator past this block lets a test derive the sibling blocks
    (dropout, stragglers, loss) exactly as a churn-free compile would, which
    is what pins "churn never shifts its siblings" as an executable contract.
    """
    rng.random(num_devices)
    if num_rounds > 1:
        rng.random((num_rounds - 1, num_devices))


def assert_stream_contract(
    fn: Callable[[np.random.Generator], object],
    rng: np.random.Generator,
    n_draws: Union[int, DrawReplay, None] = 0,
    draw: Optional[Callable[[np.random.Generator, int], None]] = None,
):
    """Run ``fn(rng)`` and assert it consumed exactly the documented draws.

    ``n_draws`` pins the contract:

    * ``0`` / ``None`` — ``fn`` must leave the stream untouched (the
      contract of every secure-comparison kernel);
    * an ``int`` with ``draw`` — ``draw(twin, n_draws)`` replays the
      documented block-draw pattern (e.g. ``lambda g, n: g.integers(m,
      size=n)``) on a twin generator seeded with the pre-call state;
    * a callable — invoked as ``n_draws(twin)`` to replay an arbitrary
      documented pattern.

    The assertion compares full bit-generator states, so both *how many*
    values and *how* they were drawn are pinned — a kernel that consumes the
    right count through a different draw shape still fails.  Returns
    ``fn``'s result so equivalence tests can chain on it.
    """
    twin = clone_generator(rng)
    result = fn(rng)
    if callable(n_draws):
        n_draws(twin)
    elif n_draws:
        if draw is None:
            raise TypeError(
                "an integer n_draws needs the draw=(generator, n) replay callable"
            )
        draw(twin, n_draws)
    assert rng.bit_generator.state == twin.bit_generator.state, (
        "RNG stream contract violated: the kernel consumed draws that the "
        "documented replay does not reproduce"
    )
    return result


def replay_ldp_draws(
    rng: np.random.Generator, workloads, receiver_counts, dimension: int
) -> None:
    """Replay ``LDPEmbeddingInitializer.draw``'s documented stream and discard it.

    Per sender, in the environment's device order: the bin partition — one
    ``integers(wl, size=d)`` with ``wl`` the sender's workload (at least 1) —
    then one ``(receivers, d)`` block of uniforms, skipped for a sender nobody
    selected.  Epsilon never enters.
    """
    for workload, count in zip(workloads, receiver_counts):
        rng.integers(int(workload), size=dimension)
        if count:
            rng.random((int(count), dimension))


def replay_dropout_draw(rng: np.random.Generator, shape) -> None:
    """Replay ``F.dropout``'s documented stream and discard it.

    A training-mode call with ``p > 0`` draws one uniform per entry as a single
    ``random(shape)`` — whatever ``p`` is, and however the mask is stored or
    applied.  Eval mode and ``p <= 0`` draw nothing (``n_draws=0``).
    """
    rng.random(shape)
