"""Packet-level protocols: WebWave, the comparison baselines and the
cluster-event-driven multi-document scenario."""

from .baselines import (
    DirectoryConfig,
    DirectoryScenario,
    IcpConfig,
    IcpScenario,
    NoCacheScenario,
    PushConfig,
    PushScenario,
)
from .cluster_packet import ClusterPacketScenario, packet_scenario_from_cluster
from .scenario import Scenario, ScenarioConfig, ScenarioMetrics
from .state import MeterBank, PacketState
from .webwave import WebWaveProtocolConfig, WebWaveScenario

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "ScenarioMetrics",
    "WebWaveScenario",
    "WebWaveProtocolConfig",
    "NoCacheScenario",
    "DirectoryScenario",
    "DirectoryConfig",
    "IcpScenario",
    "IcpConfig",
    "PushScenario",
    "PushConfig",
    "ClusterPacketScenario",
    "packet_scenario_from_cluster",
    "PacketState",
    "MeterBank",
]
