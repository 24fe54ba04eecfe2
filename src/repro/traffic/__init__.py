"""Traffic substrate: arrival processes, requests and workloads."""
