"""Privacy substrate: LDP mechanisms and secure comparison protocols."""

from .ldp import (
    FeatureBinPartitioner,
    FeatureBounds,
    GaussianMechanism,
    OneBitMechanism,
    RandomizedResponse,
)
from .oblivious_transfer import ObliviousTransfer, OTResult, TranscriptAccountant
from .secure_compare import (
    BatchComparisonResult,
    ComparisonCost,
    ComparisonResult,
    SecureComparator,
    comparison_cost,
    operand_array,
)
from .transport import (
    MeasuredCostMismatch,
    RemoteComparisonOutcome,
    RemoteOTOutcome,
    RemoteParty,
    RemotePartyError,
    TransportReport,
)
from .zero_knowledge import (
    DegreeComparisonOutcome,
    DegreeComparisonProtocol,
    WorkloadComparisonProtocol,
    log_degree_bucket,
    log_degree_buckets,
    verify_zero_knowledge_transcript,
)

__all__ = [
    "FeatureBounds",
    "OneBitMechanism",
    "FeatureBinPartitioner",
    "GaussianMechanism",
    "RandomizedResponse",
    "ObliviousTransfer",
    "OTResult",
    "TranscriptAccountant",
    "SecureComparator",
    "ComparisonResult",
    "ComparisonCost",
    "BatchComparisonResult",
    "comparison_cost",
    "operand_array",
    "MeasuredCostMismatch",
    "RemoteComparisonOutcome",
    "RemoteOTOutcome",
    "RemoteParty",
    "RemotePartyError",
    "TransportReport",
    "DegreeComparisonProtocol",
    "DegreeComparisonOutcome",
    "WorkloadComparisonProtocol",
    "log_degree_bucket",
    "log_degree_buckets",
    "verify_zero_knowledge_transcript",
]
