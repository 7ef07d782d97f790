"""LDP embedding initialisation (paper Section VI-A).

Before training starts every device must make its feature available to the
neighbouring devices whose trees contain it as a leaf — but raw features are
private.  The initialisation therefore:

1. encodes the feature with the 1-bit mechanism, using the per-element budget
   ``eps * wl(u) / d`` (Eq. 26);
2. randomly distributes the ``d`` elements into ``wl(u)`` bins and sends the
   ``k``-th bin (other elements replaced by the neutral symbol 0.5) to the
   ``k``-th requesting neighbour — under composability the total release
   still satisfies ``eps``-LDP (Theorem 4);
3. each receiver applies the unbiased recovery of Eq. 27 and stores the
   result as the initial embedding of the corresponding neighbour leaf.

The releasing device's *own* centre leaves keep the raw (non-noised) feature:
that data never leaves the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from ..crypto.ldp import FeatureBounds, OneBitMechanism, bin_assignment
from ..federation.events import MessageKind
from ..federation.simulator import FederatedEnvironment
from ..nn.shared_rows import densify
from .workload import Assignment


@dataclass
class EmbeddingInitializationResult:
    """Outcome of the feature-exchange phase, kept sparse.

    Message ``m`` went from ``senders[m]`` to ``receivers[m]`` (messages are
    sorted by receiver, then sender).  Row ``m`` of ``released`` stores the
    recovered values at the positions that sender released to that receiver;
    every other position carried the neutral symbol and recovers to
    ``midpoint``.  Dense rows exist only as on-demand views
    (:attr:`received_features`, :meth:`packed`).
    """

    receivers: np.ndarray
    senders: np.ndarray
    released: sp.csr_matrix
    midpoint: float
    messages_sent: int = 0
    bytes_sent: int = 0
    epsilon: float = 0.0

    @cached_property
    def received_features(self) -> Dict[int, Dict[int, np.ndarray]]:
        """``receiver -> {sender: recovered feature}`` over every message (dense)."""
        table: Dict[int, Dict[int, np.ndarray]] = {}
        receivers, senders, rows = self.packed()
        for receiver, sender, row in zip(receivers.tolist(), senders.tolist(), rows):
            table.setdefault(receiver, {})[sender] = row
        return table

    def packed(self) -> tuple:
        """``(receivers, senders, features)`` arrays over all messages (dense)."""
        return self.receivers, self.senders, densify(self.released, self.midpoint)

    def rows_for(self, receivers: np.ndarray, senders: np.ndarray) -> sp.csr_matrix:
        """The ``released`` rows of the given pairs, in the given order.

        A pair whose sender never released to that receiver (degenerate
        trimming corner case) is an empty row: the uninformative midpoint.
        """
        released = self.released
        if not self.receivers.shape[0]:
            return sp.csr_matrix((receivers.shape[0], released.shape[1]), dtype=np.float64)
        base = int(max(self.senders.max(), senders.max(initial=0))) + 1
        codes = self.receivers * base + self.senders  # ascending: the message order
        wanted = receivers * base + senders
        positions = np.minimum(np.searchsorted(codes, wanted), codes.shape[0] - 1)
        lengths = np.where(codes[positions] == wanted, np.diff(released.indptr)[positions], 0)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        source = np.repeat(released.indptr[positions] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return sp.csr_matrix(
            (released.data[source], released.indices[source], indptr),
            shape=(wanted.shape[0], released.shape[1]),
        )


#: The scratch block of ``draw`` holds ``1 / _BLOCK_SHARE`` of the stream's
#: rows, or one sender's rows if that is more.  On the 4 000-device benchmark
#: graph the draw takes the same time (52 ms, single thread) for shares 16 to
#: 512, and from 32 on its traced peak no longer falls (0.18 of the dense
#: ``(messages, d)`` array; 0.29 at 8, 0.44 at 4).
_BLOCK_SHARE = 32


def _draw_released(
    rng: np.random.Generator, workloads: np.ndarray, offsets: np.ndarray, dimension: int
) -> tuple:
    """Draw the exchange's stream and keep only the released uniforms.

    Per sender ``s`` in device order: its bin partition, then one uniform per
    element of its stream rows ``offsets[s]:offsets[s + 1]``.  Row ``k`` of
    the sender releases bin ``k mod wl(s)``.  The uniforms land in a reusable
    scratch block that holds whole senders; when the next sender does not
    fit, one mask of the block's released positions reads them out and the
    block is drawn over again.

    Returns ``(data, indices, indptr)``: the kept uniforms and their feature
    positions as per-block pieces in stream order, and ``indptr`` with the
    kept count of row ``m`` at ``m + 1``.
    """
    num_devices, messages = workloads.shape[0], int(offsets[-1])
    counts = np.diff(offsets)
    stream_sender = np.repeat(np.arange(num_devices), counts)
    rank = ((np.arange(messages) - offsets[stream_sender]) % workloads[stream_sender]).astype(
        workloads.dtype
    )
    bins = np.empty((num_devices, dimension), dtype=workloads.dtype)
    block = np.empty((max(1, messages // _BLOCK_SHARE, int(counts.max())), dimension))
    # Positions stay in the narrowest dtype until the CSR's int32 is assembled.
    position = np.min_scalar_type(dimension - 1)
    data, indices = [np.empty(0)], [np.empty(0, dtype=position)]
    indptr = np.zeros(messages + 1, dtype=np.int64)

    def keep(start: int, stop: int) -> None:
        """Keep the released uniforms of stream rows ``start:stop``, the block's head."""
        released = np.flatnonzero(bins[stream_sender[start:stop]] == rank[start:stop, None])
        data.append(block.ravel()[released])
        rows, cols = np.divmod(released, dimension)
        indices.append(cols.astype(position))
        indptr[start + 1 : stop + 1] = np.bincount(rows, minlength=stop - start)

    random, base = rng.random, 0  # stream row of the block's first row
    for index, (workload, start, stop) in enumerate(
        zip(workloads.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())
    ):
        bins[index] = bin_assignment(dimension, workload, rng)
        if stop - base > block.shape[0]:
            keep(base, start)
            base = start
        random(out=block[start - base : stop - base])
    keep(base, messages)
    return data, indices, indptr


@dataclass
class LDPDrawsResult:
    """All random draws of the feature exchange, shared across a sweep.

    The 1-bit mechanism separates cleanly into (a) drawing the bin partition
    and one uniform per released element — epsilon-independent — and (b)
    thresholding those uniforms against the Eq. 26 probabilities — cheap and
    epsilon-dependent.  Caching this object lets an epsilon sweep pay the
    draws (and the RNG stream consumption) once per construction.

    Columnar and indexed by device id (the order in which the stream was
    consumed): device ``i`` releases under ``workloads[i]``; its messages are
    rows ``offsets[i]:offsets[i + 1]`` of ``receivers`` (ascending) /
    ``uniforms``.  ``uniforms`` is a ``(messages, d)`` CSR matrix that keeps
    only the released positions of each message — bin ``k mod wl(i)`` of the
    sender's partition for its ``k``-th receiver, ``indices`` the feature
    positions — and drops the drawn uniforms no receiver ever sees.
    """

    workloads: np.ndarray
    offsets: np.ndarray
    receivers: np.ndarray
    uniforms: sp.csr_matrix


class LDPEmbeddingInitializer:
    """Runs the feature exchange of Section VI-A over an environment."""

    def __init__(
        self,
        epsilon: float,
        bounds: FeatureBounds = FeatureBounds(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = float(epsilon)
        self.bounds = bounds
        self.rng = rng if rng is not None else np.random.default_rng()
        self.mechanism = OneBitMechanism(epsilon=self.epsilon, bounds=bounds)

    def draw(
        self,
        environment: FederatedEnvironment,
        assignment: Assignment,
    ) -> LDPDrawsResult:
        """Consume the exchange's randomness without touching epsilon.

        Draws the per-sender bin partitions and the uniforms the encoder
        thresholds, in exactly the stream order of the eager exchange (per
        sender in device order: the partition, then the sender's
        ``(receivers, d)`` uniforms), so ``threshold`` (for any epsilon)
        reproduces the one-shot ``run`` bit-for-bit.  Only the released
        uniforms are kept (see :func:`_draw_released`): no ``(messages, d)``
        array exists.

        Raises
        ------
        ValueError
            If the environment has no devices or its features no elements.
        """
        num_devices = environment.num_devices
        if not num_devices:
            raise ValueError("environment has no devices")
        dimension = environment.features.shape[1]
        if not dimension:
            raise ValueError("features have no elements to release")
        # Who requests my feature?  ``r`` requests ``s`` when ``s in N_r``.
        # Stream order is by sender, then by receiver.
        receivers, senders = assignment.pairs()
        receivers = receivers[np.argsort(senders, kind="stable")]
        messages = receivers.shape[0]
        offsets = np.zeros(num_devices + 1, dtype=np.int64)
        np.cumsum(np.bincount(senders, minlength=num_devices), out=offsets[1:])
        # The sender's workload controls the privacy split; devices whose
        # selection ended up empty (possible after trimming) fall back to
        # a single bin so their feature can still be released once.
        workloads = np.maximum(assignment.workload_array(), 1)
        # Workloads and bin ids are small: a narrow dtype keeps the released
        # mask of the draw (and ``release``'s sort by workload) cheap.
        workloads = workloads.astype(np.min_scalar_type(int(workloads.max())))
        data, indices, indptr = _draw_released(self.rng, workloads, offsets, dimension)
        # Assemble one column at a time; rebinding frees that column's pieces.
        data = np.concatenate(data)
        indices = np.concatenate(indices, dtype=np.int32)
        np.cumsum(indptr, out=indptr)
        return LDPDrawsResult(
            workloads=workloads,
            offsets=offsets,
            receivers=receivers,
            uniforms=sp.csr_matrix((data, indices, indptr), shape=(messages, dimension)),
        )

    def threshold(
        self,
        environment: FederatedEnvironment,
        draws: LDPDrawsResult,
    ) -> EmbeddingInitializationResult:
        """Threshold pre-drawn randomness into the released features.

        Consumes no randomness; charges the exchange's communication and
        compute like the eager ``run``.  ``draws`` kept only the released
        positions of each message, so thresholding is one columnar pass over
        them after a receiver-major reordering of the rows.

        Raises
        ------
        ValueError
            If the environment has no devices, or ``draws`` were made for an
            environment with another device count or feature dimension.
        """
        num_devices = environment.num_devices
        if not num_devices:
            raise ValueError("environment has no devices")
        if draws.workloads.shape[0] != num_devices:
            raise ValueError(
                f"draws were made for {draws.workloads.shape[0]} devices, "
                f"the environment has {num_devices}"
            )
        dimension = draws.uniforms.shape[1]
        features = environment.features
        if features.shape[1] != dimension:
            raise ValueError(
                f"draws were made for {dimension}-dimensional features, "
                f"the environment's have {features.shape[1]}"
            )
        counts = np.diff(draws.offsets)
        stream_sender = np.repeat(np.arange(num_devices), counts)
        # Emit receiver-major (the order the tree batch and the views read).
        order = np.lexsort((stream_sender, draws.receivers))
        senders = stream_sender[order]
        uniforms = draws.uniforms[order]
        element_senders = np.repeat(senders, np.diff(uniforms.indptr))
        recovered = self.mechanism.release(
            features[element_senders, uniforms.indices],
            uniforms.data,
            draws.workloads[element_senders],
            dimension,
        )

        # Encoded symbols need 2 bits each ({0, 0.5, 1}); account the
        # transmission of the full d-dimensional message.
        size_bytes = max(1, (2 * dimension) // 8)
        receivers = draws.receivers[order]
        environment.exchange_many(
            senders, receivers, MessageKind.FEATURE_EXCHANGE, size_bytes, description="ldp-feature"
        )
        environment.ledger.compute_many(
            np.arange(num_devices), 0.1 * counts, description="ldp-encoding"
        )
        return EmbeddingInitializationResult(
            receivers=receivers,
            senders=senders,
            released=sp.csr_matrix(
                (recovered, uniforms.indices, uniforms.indptr), shape=uniforms.shape
            ),
            midpoint=self.bounds.midpoint,
            messages_sent=int(order.shape[0]),
            bytes_sent=size_bytes * int(order.shape[0]),
            epsilon=self.epsilon,
        )

    def run(
        self,
        environment: FederatedEnvironment,
        assignment: Assignment,
    ) -> EmbeddingInitializationResult:
        """Execute the exchange and return every receiver's recovered features.

        ``assignment`` determines both the sender's workload ``wl(u)`` (its
        per-element budget and bin count) and who needs whose feature: device
        ``r`` needs the feature of ``s`` exactly when ``s`` is a selected
        neighbour of ``r`` (``s`` appears as a leaf in ``T(r)``).  Equivalent
        to :meth:`draw` followed by :meth:`threshold`.
        """
        return self.threshold(environment, self.draw(environment, assignment))
