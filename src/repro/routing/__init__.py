"""Routing substrate: policies, valley-free checks, BGP, broker stitching."""

from repro.routing.bgp import BGPSimulator, RouteInfo
from repro.routing.broker_routing import (
    BrokeredRoute,
    BrokerRouter,
    ServiceLevelAgreement,
    broker_only_fraction,
)
from repro.routing.policies import (
    DirectionalPolicy,
    PolicyMatrices,
    build_policy_matrices,
    coalition_edges,
    inter_broker_edge_mask,
    policy_connectivity_curve,
)
from repro.routing.qos import (
    LinkMetrics,
    MultiQoSPath,
    MultiQoSRouter,
    QoSGraph,
    QoSPath,
    qos_coverage,
    qos_shortest_path,
    synthesize_link_metrics,
)
from repro.routing.valley_free import is_valley_free

__all__ = [
    "BGPSimulator",
    "RouteInfo",
    "BrokerRouter",
    "BrokeredRoute",
    "ServiceLevelAgreement",
    "broker_only_fraction",
    "DirectionalPolicy",
    "PolicyMatrices",
    "build_policy_matrices",
    "coalition_edges",
    "inter_broker_edge_mask",
    "policy_connectivity_curve",
    "is_valley_free",
    "LinkMetrics",
    "QoSPath",
    "MultiQoSPath",
    "QoSGraph",
    "MultiQoSRouter",
    "synthesize_link_metrics",
    "qos_shortest_path",
    "qos_coverage",
]
