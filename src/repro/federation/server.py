"""The central server of the federated system.

In Lumos the server's role is intentionally minimal: it coordinates the MCMC
iterations of the tree constructor (breaking ties among the devices that
report a maximal workload, Alg. 3).  It never sees raw features, labels,
degrees or workloads — only protocol control messages — and the
:class:`Server` class enforces that by storing nothing beyond its own
random stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np


@dataclass
class Server:
    """Minimal coordinator for the synchronous federated protocol."""

    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def pick_maximum(self, winners: List[int]) -> int:
        """Pick the final maximum-workload device (Alg. 3).

        ``winners`` are the devices reporting that they hold the largest
        workload among the candidate vertex set; if several report (ties),
        the server selects one uniformly at random, exactly as footnote 5 of
        the paper states.  The announcements themselves are logged by the
        caller: a one-byte coordination message from each winner.
        ``Generator.choice`` without weights reduces to one bounded
        ``integers`` draw, so the direct draw below consumes the stream
        bit-identically to ``rng.choice(winners)`` while skipping its array
        conversion; a single winner draws nothing.
        """
        if not winners:
            raise ValueError("no device reported a maximal workload")
        if len(winners) == 1:
            return int(winners[0])
        return int(winners[int(self.rng.integers(0, len(winners)))])
