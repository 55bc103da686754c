"""Dynamic-system substrate: churn, the SLA marketplace, and convergence.

:mod:`repro.simulation.convergence` is imported lazily by its users —
it pulls in the BGP model and the event-driven simulators, which churn
consumers do not need.
"""

from repro.simulation.churn import (
    ChurnEvent,
    ChurnTrace,
    IncrementalBrokerSet,
    generate_churn_trace,
)
from repro.simulation.marketplace import (
    MarketplaceReport,
    ServiceRequest,
    simulate_marketplace,
)

__all__ = [
    "ChurnEvent",
    "ChurnTrace",
    "generate_churn_trace",
    "IncrementalBrokerSet",
    "ServiceRequest",
    "MarketplaceReport",
    "simulate_marketplace",
]
