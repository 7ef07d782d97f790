"""Communication and computation accounting for the federated simulation.

The paper reports two system metrics (Fig. 8): the average number of
inter-device communication rounds per device per epoch, and the training time
per epoch.  Neither requires real networking — both are deterministic
functions of *what* the protocol sends and *how much* each device computes.
:class:`CommunicationLedger` records every message, undelivered message,
transport frame and unit of local computation as one row of a columnar table
so the evaluation harness can reproduce those metrics; the straggler-bound
epoch time itself is :meth:`repro.core.trainer.EpochCostModel.epoch_time`.
"""

from __future__ import annotations

import array
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .events import SERVER_ID, MessageKind


def constant_column(value: int, count) -> np.ndarray:
    """``count`` rows of ``value``: one stride-0 read-only ``int64`` view.

    The form a bulk recording site passes a column that is the same in every
    row of its block (a round, a size, a fixed endpoint), so the block stores
    eight bytes for it, not eight per row.  ``count`` is a length or a shape.
    """
    return np.broadcast_to(np.int64(value), count)


def _read_only(column, dtype=None) -> np.ndarray:
    """``column`` as an array no write can reach the ledger through.

    A read-only array (a stride-0 view, a shared column) is kept as the very
    object given; a writable one is wrapped in a read-only view of it.
    """
    column = np.asarray(column, dtype)
    if column.flags.writeable:
        column = column.view()
        column.flags.writeable = False
    return column


def _constant_value(column: np.ndarray) -> Optional[int]:
    """The one value of a stride-0 integer column; ``None`` for any other column.

    Reductions read such a column as that value times its length instead of
    streaming it.  A float column keeps numpy's summation order.
    """
    if column.strides == (0,) and column.dtype.kind in "iu":
        return int(column[0])
    return None


def _map_rows(column: np.ndarray, function) -> np.ndarray:
    """``function`` applied row-wise; a stride-0 column stays stride-0."""
    if column.strides == (0,):
        return np.broadcast_to(function(column[:1]), column.shape)
    return function(column)


def _device_to_device(senders: np.ndarray, recipients: np.ndarray) -> int:
    """Rows of one message block with neither endpoint the server."""
    off_server = True
    for column in (senders, recipients):
        value = _constant_value(column)
        if value is None:
            off_server = off_server & (column != SERVER_ID)
        elif value == SERVER_ID:
            return 0
    return senders.shape[0] if off_server is True else int(off_server.sum())


class _Table:
    """Append-only rows of one record type, stored column by column.

    Rows live in sealed *blocks* — one 1-D numpy array per column, ``round``
    first, each row's interned label code last — plus one open *tail*: one
    typed ``array.array`` buffer per column (``q`` for an integer column,
    ``d`` for a float one).  :meth:`append` writes one value into each
    buffer, so a run of single-row records allocates no object the garbage
    collector tracks, and a value the column's type cannot hold (a float
    sender or size) is a ``TypeError`` that leaves no partial row;
    :meth:`extend` seals the tail and adds its arrays as one block.  A block
    stores only what is distinct about it: the label column is a stride-0
    ``np.broadcast_to`` view of one code, a column the caller passes as a
    view (:func:`constant_column`) or as an array shared with other blocks
    stays that view or that array, and :meth:`replay` shifts a stride-0
    column without materialising it.  Every stored column is read-only, so
    no reader of :meth:`column`, no :meth:`since` delta and no replayed block
    can rewrite the log.  Pickle and ``deepcopy`` materialise every column
    (a copy shares nothing with its original; the copy is read-only too).
    Reads seal the tail (each buffer becomes a read-only ``np.frombuffer``
    view, and the tail starts over in fresh buffers) and reduce block by
    block.  ``floors`` maps a column to its lower bound, ``0`` or a column.
    """

    def __init__(self, columns: Dict[str, type], floors: Dict[str, object]) -> None:
        self.columns = tuple(columns)
        self._dtypes = (*columns.values(), np.int64)
        self._floors = [
            (self.columns.index(name), None if floor == 0 else self.columns.index(floor))
            for name, floor in floors.items()
        ]
        self.labels: List[tuple] = []
        self._codes: Dict[tuple, int] = {}
        self._blocks: List[tuple] = []
        self._tail = [
            array.array("d" if np.dtype(dtype).kind == "f" else "q") for dtype in self._dtypes
        ]
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _code(self, label: tuple) -> int:
        if label not in self._codes:
            self._codes[label] = len(self.labels)
            self.labels.append(label)
        return self._codes[label]

    def _check(self, values, bulk: bool) -> None:
        """The one validation of both append paths: every floor holds.

        A stride-0 column (and a stride-0 floor) is compared by its one value.
        """
        if bulk:
            values = [
                column[0] if column.strides == (0,) and column.shape[0] else column
                for column in values
            ]
        for column, floor in self._floors:
            below = values[column] < (0 if floor is None else values[floor])
            if below.any() if bulk else below:
                bound = "0" if floor is None else self.columns[floor]
                raise ValueError(f"{self.columns[column]} must not be below {bound}")

    def append(self, label: tuple, *values) -> None:
        """Record one row (``values`` in column order) under ``label``."""
        self._check(values, bulk=False)
        tail = self._tail
        rows = len(tail[-1])
        try:
            for buffer, value in zip(tail, values):
                buffer.append(value)
        except (TypeError, OverflowError):
            for buffer in tail:
                del buffer[rows:]
            raise
        tail[-1].append(self._code(label))
        self._size += 1

    def __setstate__(self, state: dict) -> None:
        # Unpickled and deep-copied columns are fresh writable arrays.
        self.__dict__.update(state)
        self._blocks = [tuple(map(_read_only, block)) for block in self._blocks]

    def extend(self, label: tuple, *columns) -> None:
        """Record one block of rows (one array per column) under ``label``."""
        columns = [_read_only(column, dtype) for column, dtype in zip(columns, self._dtypes)]
        shapes = {column.shape for column in columns}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(f"columns must be 1-D and of one length, got shapes {sorted(shapes)}")
        self._check(columns, bulk=True)
        count = columns[0].shape[0]
        if count:
            self._seal().append((*columns, constant_column(self._code(label), count)))
            self._size += count

    def _seal(self) -> List[tuple]:
        tail = self._tail
        if tail[-1]:
            columns = map(np.frombuffer, tail, self._dtypes)
            self._blocks.append(tuple(map(_read_only, columns)))
            self._tail = [array.array(buffer.typecode) for buffer in tail]
        return self._blocks

    def column(self, name: str) -> List[np.ndarray]:
        """The blocks' arrays of one column, in recorded order."""
        index = self.columns.index(name)
        return [block[index] for block in self._seal()]

    def total(self, name: str):
        """Sum of one column, reduced block by block in recorded order."""
        total = 0
        for column in self.column(name):
            value = _constant_value(column)
            total += column.sum().item() if value is None else value * column.shape[0]
        return total

    def label_counts(self) -> Dict[tuple, int]:
        """Rows per label, in the order labels were first recorded."""
        counts = np.zeros(len(self.labels), dtype=np.int64)
        for block in self._seal():
            code = _constant_value(block[-1])
            if code is None:
                counts += np.bincount(block[-1], minlength=len(self.labels))
            else:
                counts[code] += block[-1].shape[0]
        return {label: int(count) for label, count in zip(self.labels, counts) if count}

    def rows(self) -> List[tuple]:
        """Every row in recorded order: its column values, then its label."""
        rows: List[tuple] = []
        for block in self._seal():
            labels = [self.labels[code] for code in block[-1].tolist()]
            values = zip(*(column.tolist() for column in block[:-1]), labels)
            rows.extend((*row, *label) for *row, label in values)
        return rows

    def mark(self) -> int:
        return len(self._seal())

    def since(self, mark: int) -> tuple:
        """``(labels, blocks)`` recorded after ``mark``."""
        return tuple(self.labels), self._seal()[mark:]

    def replay(self, delta: tuple, offset: int) -> None:
        """Append a :meth:`since` delta, its rounds shifted by ``offset``."""
        labels, blocks = delta
        codes = np.array([self._code(label) for label in labels], dtype=np.int64)
        relabel = not np.array_equal(codes, np.arange(codes.shape[0]))
        self._seal()
        for rounds, *middle, label in blocks:
            if offset:
                rounds = _map_rows(rounds, lambda column: column + offset)
            if relabel:
                label = _map_rows(label, codes.__getitem__)
            self._blocks.append(tuple(map(_read_only, (rounds, *middle, label))))
            self._size += rounds.shape[0]


class _LedgerDelta(NamedTuple):
    """What a ledger recorded after a mark (see :meth:`CommunicationLedger.since`)."""

    base_round: int
    rounds: int
    tables: tuple


class CommunicationLedger:
    """Append-only log of traffic and computation, with summary queries.

    Four :class:`_Table` s, every row stamped with its round: ``messages``
    (the modeled protocol traffic, labelled ``(kind, description)``;
    :meth:`message_records` is its canonical transcript), ``dropped``
    (messages that never reached their recipient — offline endpoint, lost in
    transit, evicted past the round deadline — kept out of ``messages`` so
    fault injection never perturbs the transcript), ``frames`` (physical
    frames of a secure session over a real transport channel,
    :mod:`repro.crypto.transport`: measured evidence beside the modeled
    traffic, never part of it) and ``computation`` (local compute, labelled
    ``(description,)``).
    """

    def __init__(self) -> None:
        message = {"round": np.int64, "sender": np.int64, "recipient": np.int64}
        self.messages = _Table({**message, "size": np.int64}, floors={"size": 0})
        self.dropped = _Table({**message, "size": np.int64}, floors={"size": 0})
        self.frames = _Table(
            {**message, "payload": np.int64, "wire": np.int64},
            floors={"payload": 0, "wire": "payload"},
        )
        self.computation = _Table(
            {"round": np.int64, "device": np.int64, "cost": np.float64}, floors={"cost": 0}
        )
        self.current_round = 0

    def _tables(self) -> Tuple[_Table, ...]:
        return (self.messages, self.dropped, self.frames, self.computation)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def send(
        self, sender: int, recipient: int, kind: MessageKind, size_bytes: int, description: str = ""
    ) -> None:
        """Record a directed message in the current round."""
        self.messages.append(
            (kind.value, description), self.current_round, sender, recipient, size_bytes
        )

    def send_many(
        self, senders, recipients, kind: MessageKind, sizes, round_indices, description: str = ""
    ) -> None:
        """:meth:`send` per position under that position's round, as one block.

        For callers where one call per protocol step would be the cost (the
        MCMC balancing kernel, the greedy block, the LDP exchange).  The
        caller hands its arrays over: the block stores them (or read-only
        views of them) uncopied, so the caller must not write into them
        afterwards.  A column that is one value in every row should be a
        :func:`constant_column`, and one array may serve several blocks.
        """
        self.messages.extend((kind.value, description), round_indices, senders, recipients, sizes)

    def drop(
        self, sender: int, recipient: int, kind: MessageKind, size_bytes: int, description: str = ""
    ) -> None:
        """Record a message that never reached its recipient.

        Whether the sender's bandwidth was also charged is the caller's
        decision: a suppressed send (offline sender) records *only* a drop,
        while an undelivered send (offline recipient, loss in transit,
        deadline eviction) pairs a normal :meth:`send` with a drop record.
        """
        self.dropped.append(
            (kind.value, description), self.current_round, sender, recipient, size_bytes
        )

    def drop_many(
        self, senders, recipients, kind: MessageKind, sizes, round_indices, description: str = ""
    ) -> None:
        """:meth:`drop` per position, as one block (see :meth:`send_many`)."""
        self.dropped.extend((kind.value, description), round_indices, senders, recipients, sizes)

    def record_transport_frame(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload_bytes: int,
        wire_bytes: int,
        description: str = "",
    ) -> None:
        """Attribute one measured transport frame to its party endpoints.

        ``kind`` is the transport-level frame tag (a
        :class:`~repro.crypto.channel.FrameKind` name), not a
        :class:`MessageKind` — the frame is physical evidence alongside the
        modeled traffic, never part of it.
        """
        self.frames.append(
            (str(kind), description),
            self.current_round,
            sender,
            recipient,
            payload_bytes,
            wire_bytes,
        )

    def compute(self, device: int, cost: float, description: str = "") -> None:
        """Record ``cost`` units of local computation on ``device``."""
        self.computation.append((description,), self.current_round, device, cost)

    def compute_many(self, devices, costs, description: str = "") -> None:
        """:meth:`compute` per ``(device, cost)`` pair in this round, as one block."""
        devices = np.asarray(devices, dtype=np.int64)
        self.computation.extend(
            (description,), constant_column(self.current_round, devices.shape), devices, costs
        )

    def next_round(self) -> int:
        """Advance the synchronous round counter."""
        self.current_round += 1
        return self.current_round

    def reset(self) -> None:
        """Clear all recorded rows and the round counter."""
        self.__init__()

    # ------------------------------------------------------------------ #
    # Deltas (the execution engine's replay of a cached stage)
    # ------------------------------------------------------------------ #
    def mark(self) -> tuple:
        """A position in the log for :meth:`since`."""
        return (self.current_round, *(table.mark() for table in self._tables()))

    def since(self, mark: Optional[tuple] = None) -> _LedgerDelta:
        """The rows every table gained after ``mark`` (``None``: ever) and the rounds."""
        base_round, *starts = mark if mark is not None else (0,) * (1 + len(self._tables()))
        return _LedgerDelta(
            base_round=base_round,
            rounds=self.current_round - base_round,
            tables=tuple(table.since(start) for table, start in zip(self._tables(), starts)),
        )

    def replay(self, delta: _LedgerDelta) -> None:
        """Append a :meth:`since` delta as if recorded from this ledger's round."""
        offset = self.current_round - delta.base_round
        for table, rows in zip(self._tables(), delta.tables):
            table.replay(rows, offset)
        self.current_round += delta.rounds

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def message_records(self) -> List[tuple]:
        """Canonical multiset of all logged traffic, sorted.

        ``(round, sender, recipient, kind, size, description)`` tuples of
        plain ``int`` / ``str`` — within one synchronous round the protocol
        imposes no message order, so this is the form two transcripts are
        compared in (tests, the maintenance state digest).
        """
        return sorted(
            (round_index, sender, recipient, kind, size, description)
            for round_index, sender, recipient, size, kind, description in self.messages.rows()
        )

    def per_device_message_counts(self, num_devices: int) -> np.ndarray:
        """Messages each device ``0..num_devices-1`` sent."""
        counts = np.zeros(num_devices, dtype=np.int64)
        for senders in self.messages.column("sender"):
            senders = senders[(senders >= 0) & (senders < num_devices)]
            counts += np.bincount(senders, minlength=num_devices)
        return counts

    def per_device_compute(self, num_devices: int) -> np.ndarray:
        """Compute cost charged to each device ``0..num_devices-1``."""
        costs = np.zeros(num_devices, dtype=np.float64)
        table = self.computation
        for devices, charged in zip(table.column("device"), table.column("cost")):
            in_range = (devices >= 0) & (devices < num_devices)
            np.add.at(costs, devices[in_range], charged[in_range])
        return costs

    def summary(self, num_devices: Optional[int] = None) -> Dict[str, float]:
        """Return the headline counters as a dictionary."""
        messages = self.messages
        device_to_device = sum(
            map(_device_to_device, messages.column("sender"), messages.column("recipient"))
        )
        result: Dict[str, float] = {
            "total_messages": float(len(messages)),
            "total_bytes": float(messages.total("size")),
            "device_to_device_messages": float(device_to_device),
            "rounds": float(self.current_round),
            "total_compute": float(self.computation.total("cost")),
        }
        if num_devices:
            result["avg_messages_per_device"] = device_to_device / num_devices
        # Drop and transport counters appear only when such rows exist, so
        # fault-free, simulation-only summaries keep their layout.
        if len(self.dropped):
            result["dropped_messages"] = float(len(self.dropped))
            result["dropped_bytes"] = float(self.dropped.total("size"))
        if len(self.frames):
            result["transport_frames"] = float(len(self.frames))
            result["transport_payload_bytes"] = float(self.frames.total("payload"))
            result["transport_wire_bytes"] = float(self.frames.total("wire"))
        for (kind, _description), count in messages.label_counts().items():
            result[f"messages_{kind}"] = result.get(f"messages_{kind}", 0.0) + count
        return result
