"""Packet-level protocols: WebWave, the comparison baselines and the
cluster-event-driven multi-document scenario."""

from .cluster_packet import ClusterPacketScenario
from .scenario import ScenarioConfig
from .webwave import WebWaveScenario

__all__ = ["ClusterPacketScenario", "ScenarioConfig", "WebWaveScenario"]
