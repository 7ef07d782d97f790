"""A two-party session a runtime worker can be told to run by name."""

from __future__ import annotations

import numpy as np

from repro.crypto import RemoteParty
from repro.runtime import ChaosConfig


def chaos_comparison_probe(
    count: int = 16,
    bit_width: int = 16,
    seed: int = 0,
    crash_rate: float = 1.0,
    timeout: float = 5.0,
) -> dict:
    """Run one small remote comparison under a chaos schedule.

    Importable by name (``helpers.chaos_probe:chaos_comparison_probe``) for
    :class:`~repro.runtime.items.CallableItem` — workers inherit the suite's
    ``sys.path``, which is how ``helpers.*`` resolves there — so the chaos
    tests can dispatch a real two-party session into a worker: with
    ``crash_rate=1.0`` the party is hard-killed before its first send and
    the driver's typed ``RemotePartyError`` propagates out of the worker as
    a ``FailedAttempt`` — never a hang, because every channel receive is
    deadline-bounded.  Returns the outcome summary when the session survives
    the schedule.
    """
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1 << bit_width, size=(2, count))
    driver = RemoteParty(
        bit_width=bit_width,
        timeout=timeout,
        chaos=ChaosConfig(seed=seed, crash_rate=crash_rate),
    )
    outcome = driver.compare_batch(
        values[0], values[1], session_key=f"chaos-probe-{seed}"
    )
    return {
        "count": count,
        "true_fraction": float(outcome.left_ge_right.mean()),
        "wire_bytes": outcome.report.wire_bytes,
    }
