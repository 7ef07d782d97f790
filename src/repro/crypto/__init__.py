"""Privacy substrate: LDP mechanisms and secure comparison protocols."""

from .ldp import (
    FeatureBounds,
    GaussianMechanism,
    OneBitMechanism,
    RandomizedResponse,
)
from .oblivious_transfer import TranscriptAccountant
from .secure_compare import (
    BatchComparisonResult,
    ComparisonCost,
    SecureComparator,
    comparison_cost,
    operand_array,
)
from .transport import (
    MeasuredCostMismatch,
    RemoteComparisonOutcome,
    RemoteParty,
    RemotePartyError,
    TransportReport,
)

__all__ = [
    "FeatureBounds",
    "OneBitMechanism",
    "GaussianMechanism",
    "RandomizedResponse",
    "TranscriptAccountant",
    "SecureComparator",
    "ComparisonCost",
    "BatchComparisonResult",
    "comparison_cost",
    "operand_array",
    "MeasuredCostMismatch",
    "RemoteComparisonOutcome",
    "RemoteParty",
    "RemotePartyError",
    "TransportReport",
]
