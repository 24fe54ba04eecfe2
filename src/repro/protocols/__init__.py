"""Packet-level protocols: WebWave, the comparison baselines and the
cluster-event-driven multi-document scenario."""

from .cluster_packet import packet_scenario_from_cluster
from .scenario import ScenarioConfig
from .webwave import WebWaveScenario

__all__ = ["ScenarioConfig", "WebWaveScenario", "packet_scenario_from_cluster"]
