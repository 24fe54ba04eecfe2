"""Network substrate: topologies, routing, and routing-tree extraction."""
