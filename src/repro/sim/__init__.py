"""Discrete-event simulation substrate: engine and seeded RNG streams."""
