"""Local differential privacy mechanisms.

Three mechanisms are implemented:

* :class:`OneBitMechanism` — the 1-bit encoder of Ding et al. (NeurIPS 2017)
  with the exact probabilities of paper Eq. 26 and the unbiased recovery of
  Eq. 27.  Lumos uses it (combined with element binning, see
  :class:`FeatureBinPartitioner`) to release node features to neighbours.
* :class:`GaussianMechanism` — used by the naive FedGNN baseline to noise
  features before uploading them to the server.
* :class:`RandomizedResponse` — used by the naive FedGNN baseline to noise
  adjacency bits and labels, and by the LPGNN baseline for labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class FeatureBounds:
    """The closed interval ``[a, b]`` that every feature element lies in."""

    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self) -> None:
        if not self.upper > self.lower:
            raise ValueError("upper bound must exceed lower bound")

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0

    @property
    def width(self) -> float:
        return self.upper - self.lower


class OneBitMechanism:
    """The 1-bit LDP mechanism with unbiased recovery (paper Eq. 26-27).

    With per-element privacy budget ``eps' = eps * wl(u) / d`` each selected
    element ``x`` in ``[a, b]`` is mapped to 1 with probability

        P[x' = 1] = 1 / (e^eps' + 1) + (x - a)/(b - a) * (e^eps' - 1)/(e^eps' + 1)

    and recovered as an unbiased estimate of ``x``.  Elements that are not
    selected (because they fall into another neighbour's bin) are transmitted
    as the neutral symbol 0.5 and recovered as the interval midpoint.
    """

    NEUTRAL = 0.5

    def __init__(self, epsilon: float, bounds: FeatureBounds = FeatureBounds()) -> None:
        if epsilon <= 0:
            raise ValueError("privacy budget epsilon must be positive")
        self.epsilon = float(epsilon)
        self.bounds = bounds

    # ------------------------------------------------------------------ #
    # Probabilities
    # ------------------------------------------------------------------ #
    def per_element_epsilon(self, workload: int, dimension: int) -> float:
        """Per-element budget ``eps * wl / d`` (paper: noise parameter of Eq. 26)."""
        if workload <= 0 or dimension <= 0:
            raise ValueError("workload and dimension must be positive")
        return self.epsilon * workload / dimension

    def probability_one(self, values: np.ndarray, epsilon_prime: float) -> np.ndarray:
        """Return ``P[x' = 1]`` element-wise (Eq. 26)."""
        a, b = self.bounds.lower, self.bounds.upper
        values = np.clip(np.asarray(values, dtype=np.float64), a, b)
        exp_eps = np.exp(epsilon_prime)
        return 1.0 / (exp_eps + 1.0) + (values - a) / (b - a) * (exp_eps - 1.0) / (exp_eps + 1.0)

    # ------------------------------------------------------------------ #
    # Encoding / recovery
    # ------------------------------------------------------------------ #
    def encode(
        self,
        values: np.ndarray,
        workload: int,
        dimension: Optional[int] = None,
        selected: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        uniforms: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Encode a feature vector into ``{0, 0.5, 1}^d``.

        Parameters
        ----------
        values:
            The raw feature vector.
        workload:
            The trimmed-tree workload ``wl(u)`` of the releasing device.
        dimension:
            Total feature dimension ``d`` (defaults to ``len(values)``).
        selected:
            Boolean mask of the elements to actually encode; the rest are set
            to the neutral symbol 0.5.  ``None`` encodes every element.
        rng:
            Source of randomness.
        uniforms:
            Pre-drawn uniforms of ``values``' shape to threshold instead of
            drawing from ``rng``.  The draws are epsilon-independent, so an
            epsilon sweep can draw once and re-threshold per point —
            bit-identical to drawing inside each encode.
        """
        values = np.asarray(values, dtype=np.float64)
        dimension = int(dimension) if dimension is not None else values.shape[-1]
        epsilon_prime = self.per_element_epsilon(workload, dimension)
        probability = self.probability_one(values, epsilon_prime)
        if uniforms is None:
            rng = rng if rng is not None else np.random.default_rng()
            uniforms = rng.random(values.shape)
        elif uniforms.shape != values.shape:
            raise ValueError("uniforms must have the same shape as values")
        bits = (uniforms < probability).astype(np.float64)
        if selected is None:
            return bits
        selected = np.asarray(selected, dtype=bool)
        if selected.shape != values.shape:
            raise ValueError("selected mask must have the same shape as values")
        encoded = np.full(values.shape, self.NEUTRAL, dtype=np.float64)
        encoded[selected] = bits[selected]
        return encoded

    def recover(
        self,
        encoded: np.ndarray,
        workload: int,
        dimension: Optional[int] = None,
    ) -> np.ndarray:
        """Map encoded symbols back to unbiased feature estimates (Eq. 27)."""
        encoded = np.asarray(encoded, dtype=np.float64)
        dimension = int(dimension) if dimension is not None else encoded.shape[-1]
        epsilon_prime = self.per_element_epsilon(workload, dimension)
        a, b = self.bounds.lower, self.bounds.upper
        exp_eps = np.exp(epsilon_prime)
        ratio = (exp_eps + 1.0) / (exp_eps - 1.0)
        recovered = np.full(encoded.shape, (a + b) / 2.0, dtype=np.float64)
        recovered[encoded == 1.0] = (b - a) / 2.0 * ratio + (a + b) / 2.0
        recovered[encoded == 0.0] = (a - b) / 2.0 * ratio + (a + b) / 2.0
        return recovered

    def release(
        self, values: np.ndarray, uniforms: np.ndarray, workloads: np.ndarray, dimension: int
    ) -> np.ndarray:
        """``recover(encode(...))`` of released elements only, columnar.

        Element ``i`` belongs to a device of workload ``workloads[i]``.  Each
        distinct workload is one :meth:`encode` + :meth:`recover` call, so the
        estimates are bit for bit those of one call pair per device.
        """
        recovered = np.empty(values.shape, dtype=np.float64)
        order = np.argsort(workloads, kind="stable")
        starts = np.flatnonzero(np.diff(workloads[order], prepend=0))  # workloads are >= 1
        for start, stop in zip(starts, np.append(starts[1:], order.shape[0])):
            mine = order[start:stop]
            workload = int(workloads[mine[0]])
            encoded = self.encode(values[mine], workload, dimension, uniforms=uniforms[mine])
            recovered[mine] = self.recover(encoded, workload, dimension)
        return recovered

    def encode_and_recover(
        self,
        values: np.ndarray,
        workload: int,
        dimension: Optional[int] = None,
        selected: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Convenience: encode then recover in one call."""
        encoded = self.encode(values, workload, dimension=dimension, selected=selected, rng=rng)
        return self.recover(encoded, workload, dimension=dimension)


class FeatureBinPartitioner:
    """Random partition of the ``d`` feature indices into ``wl`` bins.

    Lumos sends the ``k``-th bin to the ``k``-th (remaining) neighbour so the
    union of all transmissions covers every element while each neighbour sees
    only ``d / wl`` encoded elements (paper §VI-A).
    """

    def __init__(self, dimension: int, num_bins: int, rng: Optional[np.random.Generator] = None) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        if num_bins <= 0:
            raise ValueError("num_bins must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.dimension = dimension
        self.num_bins = num_bins
        assignment = rng.integers(num_bins, size=dimension)
        self._assignment = assignment

    @property
    def assignment(self) -> np.ndarray:
        """Bin id of every feature index."""
        return self._assignment

    def mask_for_bin(self, bin_index: int) -> np.ndarray:
        """Boolean mask of the feature indices that belong to ``bin_index``."""
        if not 0 <= bin_index < self.num_bins:
            raise ValueError(f"bin index {bin_index} out of range [0, {self.num_bins})")
        return self._assignment == bin_index

    def masks(self) -> Sequence[np.ndarray]:
        """All bin masks in order."""
        return [self.mask_for_bin(index) for index in range(self.num_bins)]


class GaussianMechanism:
    """(epsilon, delta)-DP Gaussian noise addition (Dwork & Roth, 2014)."""

    def __init__(self, epsilon: float, delta: float = 1e-5, sensitivity: float = 1.0) -> None:
        if epsilon <= 0 or not 0 < delta < 1:
            raise ValueError("require epsilon > 0 and delta in (0, 1)")
        self.epsilon = epsilon
        self.delta = delta
        self.sensitivity = sensitivity

    @property
    def sigma(self) -> float:
        """Standard deviation of the calibrated Gaussian noise."""
        return self.sensitivity * np.sqrt(2.0 * np.log(1.25 / self.delta)) / self.epsilon

    def randomize(self, values: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return ``values`` plus calibrated Gaussian noise."""
        rng = rng if rng is not None else np.random.default_rng()
        values = np.asarray(values, dtype=np.float64)
        return values + rng.normal(0.0, self.sigma, size=values.shape)


class RandomizedResponse:
    """Warner's randomized response over ``k`` categories.

    The true category is reported with probability ``e^eps / (e^eps + k - 1)``
    and a uniformly random other category otherwise; this satisfies
    ``eps``-LDP.
    """

    def __init__(self, epsilon: float, num_categories: int = 2) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if num_categories < 2:
            raise ValueError("need at least two categories")
        self.epsilon = epsilon
        self.num_categories = num_categories

    @property
    def keep_probability(self) -> float:
        """Probability of reporting the true category."""
        exp_eps = np.exp(self.epsilon)
        return exp_eps / (exp_eps + self.num_categories - 1)

    def randomize(self, values: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Apply randomized response element-wise to integer ``values``."""
        rng = rng if rng is not None else np.random.default_rng()
        values = np.asarray(values, dtype=np.int64)
        keep = rng.random(values.shape) < self.keep_probability
        # Sample a uniformly random *different* category for flipped entries.
        offsets = rng.integers(1, self.num_categories, size=values.shape)
        flipped = (values + offsets) % self.num_categories
        return np.where(keep, values, flipped)

    def randomize_bits(self, bits: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Binary special case (used for adjacency-matrix perturbation)."""
        if self.num_categories != 2:
            raise ValueError("randomize_bits requires a binary mechanism")
        return self.randomize(np.asarray(bits, dtype=np.int64), rng=rng)
