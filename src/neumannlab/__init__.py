"""Numerical laboratory for a critical Neumann problem on the ball."""

__version__ = "0.1.0"
