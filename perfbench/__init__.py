"""Repeated, layer-split benchmark of the ESG testbed (see README.md)."""
