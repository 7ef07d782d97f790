"""Design-choice ablation (beyond the paper's figures): LDP element binning.

Section VI-A argues that sending each neighbour only one *bin* of encoded
elements (with the rest fixed at the neutral symbol) yields lower-variance
recovered features than encoding every element for every neighbour under the
same total budget.  This bench measures the mean-squared error of the two
strategies directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import OneBitMechanism
from repro.crypto.ldp import bin_assignment
from repro.eval.reporting import format_table


@pytest.mark.benchmark(group="ablation-ldp-binning")
def test_binning_reduces_recovery_error(benchmark, scale):
    """Compare per-message MSE of binned vs full-feature 1-bit encoding."""
    rng = np.random.default_rng(scale.seed)
    dimension, workload, epsilon = 128, 8, 2.0
    features = rng.random((200, dimension))

    def run():
        binned_mechanism = OneBitMechanism(epsilon=epsilon)
        full_mechanism = OneBitMechanism(epsilon=epsilon)
        binned_errors, full_errors = [], []
        for feature in features:
            bins = bin_assignment(dimension, workload, rng)
            # Binned strategy: per-element budget eps*wl/d, one bin per message.
            encoded = binned_mechanism.encode(feature, workload, dimension=dimension, rng=rng)
            encoded = np.where(bins == 0, encoded, OneBitMechanism.NEUTRAL)
            recovered = binned_mechanism.recover(encoded, workload, dimension=dimension)
            binned_errors.append(np.mean((recovered - feature) ** 2))
            # Full strategy: every element encoded in every message, so the
            # per-element budget is eps/d (workload=1 in our parametrisation).
            recovered_full = full_mechanism.recover(
                full_mechanism.encode(feature, 1, dimension=dimension, rng=rng), 1, dimension=dimension
            )
            full_errors.append(np.mean((recovered_full - feature) ** 2))
        return {"binned_mse": float(np.mean(binned_errors)), "full_mse": float(np.mean(full_errors))}

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n[Ablation] LDP element binning")
    print(
        format_table(
            ["strategy", "per-message MSE"],
            [["binned (Lumos)", result["binned_mse"]], ["full encoding", result["full_mse"]]],
        )
    )
    # The binned strategy has lower variance per transmitted message.
    assert result["binned_mse"] < result["full_mse"]
