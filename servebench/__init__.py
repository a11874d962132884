"""A steady serving benchmark for ``repro serve``; see ``run.py``."""
