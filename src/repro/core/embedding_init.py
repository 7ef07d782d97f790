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

from ..crypto.ldp import FeatureBinPartitioner, FeatureBounds, OneBitMechanism
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


@dataclass
class LDPDrawsResult:
    """All random draws of the feature exchange, shared across a sweep.

    The 1-bit mechanism separates cleanly into (a) drawing the bin partition
    and one uniform per released element — epsilon-independent — and (b)
    thresholding those uniforms against the Eq. 26 probabilities — cheap and
    epsilon-dependent.  Caching this object lets an epsilon sweep pay the
    draws (and the RNG stream consumption) once per construction.

    Columnar: sender ``i`` is ``sender_ids[i]`` (the environment's device
    order, in which the stream was consumed) releasing under ``workloads[i]``
    with bin partition ``bins[i]``; its messages are rows
    ``offsets[i]:offsets[i + 1]`` of ``receivers`` (ascending) / ``uniforms``.
    """

    sender_ids: np.ndarray
    workloads: np.ndarray
    bins: np.ndarray
    offsets: np.ndarray
    receivers: np.ndarray
    uniforms: np.ndarray


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
        sender in device order: the partition, then one ``(receivers, d)``
        block written into the shared uniforms array), so ``threshold`` (for
        any epsilon) reproduces the one-shot ``run`` bit-for-bit.
        """
        devices = environment.devices
        dimension = next((d.ego.feature.shape[0] for d in devices.values()), 0)
        # Who requests my feature?  ``r`` requests ``s`` when ``s in N_r``.
        # Stream order is by sender, then by receiver.
        receivers, senders = assignment.pairs()
        order = np.argsort(senders, kind="stable")
        offsets = np.zeros(len(devices) + 1, dtype=np.int64)
        np.cumsum(np.bincount(senders, minlength=len(devices)), out=offsets[1:])
        # The sender's workload controls the privacy split; devices whose
        # selection ended up empty (possible after trimming) fall back to
        # a single bin so their feature can still be released once.
        workloads = np.maximum(assignment.workload_vector(len(devices)), 1)
        # Workloads and bin ids are small: a narrow dtype keeps the per-message
        # bin gather of ``threshold`` (and its sort by workload) cheap.
        workloads = workloads.astype(np.min_scalar_type(int(workloads.max(initial=1))))
        bins = np.empty((len(devices), dimension), dtype=workloads.dtype)
        uniforms = np.empty((order.shape[0], dimension), dtype=np.float64)
        for index, (workload, start, stop) in enumerate(
            zip(workloads.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())
        ):
            bins[index] = FeatureBinPartitioner(dimension, workload, rng=self.rng).assignment
            if stop > start:
                self.rng.random(out=uniforms[start:stop])
        return LDPDrawsResult(
            sender_ids=np.fromiter(devices, dtype=np.int64, count=len(devices)),
            workloads=workloads,
            bins=bins,
            offsets=offsets,
            receivers=receivers[order],
            uniforms=uniforms,
        )

    def threshold(
        self,
        environment: FederatedEnvironment,
        draws: LDPDrawsResult,
    ) -> EmbeddingInitializationResult:
        """Threshold pre-drawn randomness into the released features.

        Consumes no randomness; charges the exchange's communication and
        compute like the eager ``run``.  Only the released positions of a
        message are thresholded — sender ``s`` releases bin ``k mod wl(s)`` to
        its ``k``-th receiver — in one columnar pass over all messages.
        """
        if not environment.num_devices:
            raise ValueError("environment has no devices")
        dimension = draws.bins.shape[1]
        counts = np.diff(draws.offsets)
        stream_sender = np.repeat(np.arange(counts.shape[0]), counts)
        rank = (
            np.arange(stream_sender.shape[0]) - draws.offsets[stream_sender]
        ) % draws.workloads[stream_sender]
        # Emit receiver-major (the order the tree batch and the views read).
        order = np.lexsort((draws.sender_ids[stream_sender], draws.receivers))
        sender = stream_sender[order]
        released = draws.bins[sender] == rank[order].astype(draws.bins.dtype)[:, None]
        rows, cols = np.divmod(np.flatnonzero(released), dimension)
        features = np.asarray(
            [environment.devices[int(d)].ego.feature for d in draws.sender_ids], dtype=np.float64
        ).reshape(-1, dimension)
        recovered = self.mechanism.release(
            features[sender[rows], cols],
            draws.uniforms[order[rows], cols],
            draws.workloads[sender[rows]],
            dimension,
        )
        indptr = np.zeros(order.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=order.shape[0]), out=indptr[1:])

        # Encoded symbols need 2 bits each ({0, 0.5, 1}); account the
        # transmission of the full d-dimensional message.
        size_bytes = max(1, (2 * dimension) // 8)
        senders, receivers = draws.sender_ids[sender], draws.receivers[order]
        environment.exchange_many(
            senders, receivers, MessageKind.FEATURE_EXCHANGE, size_bytes, description="ldp-feature"
        )
        environment.ledger.compute_many(
            draws.sender_ids, 0.1 * counts, description="ldp-encoding"
        )
        return EmbeddingInitializationResult(
            receivers=receivers,
            senders=senders,
            released=sp.csr_matrix((recovered, cols, indptr), shape=released.shape),
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
