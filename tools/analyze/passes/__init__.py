"""The four project-specific repro-lint passes."""

from .billing import BillingPass
from .concurrency import ConcurrencyPass
from .determinism import DeterminismPass
from .operator_contract import OperatorContractPass

ALL_PASSES = (
    DeterminismPass,
    BillingPass,
    ConcurrencyPass,
    OperatorContractPass,
)

__all__ = [
    "ALL_PASSES",
    "BillingPass",
    "ConcurrencyPass",
    "DeterminismPass",
    "OperatorContractPass",
]
