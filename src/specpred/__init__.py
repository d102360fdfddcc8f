"""Predictor feedback for diagonal boundary control systems with uncertain
input delay: gain synthesis, numeric stability certificates, closed-loop
simulation, and empirical verification of exponential ISS envelopes.
"""

__version__ = "0.1.0"
