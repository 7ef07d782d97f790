"""Absolute end-to-end and per-layer benchmark of the Lumos reproduction."""
