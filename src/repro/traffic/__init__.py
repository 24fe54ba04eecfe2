"""Traffic substrate: arrival processes, requests and workloads."""

from .arrivals import (
    ArrivalProcess,
    ConstantArrivals,
    ParetoOnOffArrivals,
    PoissonArrivals,
)
from .requests import Request
from .workload import Workload, WorkloadError, hot_document_workload

__all__ = [
    "ArrivalProcess",
    "ConstantArrivals",
    "PoissonArrivals",
    "ParetoOnOffArrivals",
    "Request",
    "Workload",
    "WorkloadError",
    "hot_document_workload",
]
