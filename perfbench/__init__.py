"""Crimson's benchmark (see ``run.py``)."""
