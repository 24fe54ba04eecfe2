"""Experiment harness: one module per paper figure plus extensions.

See ARCHITECTURE.md, "Layer 3", for the mapping from paper artifacts
(Figure 2, 4, 6, 7; the Section 5.1 regression) and extension studies
(E-X1..E-X10) to these modules, and for the one result type they return.
"""
