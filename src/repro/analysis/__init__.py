"""Analysis helpers: metrics, text tables and ASCII plots."""
