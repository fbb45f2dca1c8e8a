"""Identification of approximately feedback-linearizable neural state-space
models, with output-feedback linearizing control and ISS certificates.

Submodules are imported explicitly by callers; the package root imports
nothing, so `import alssnn` does not load numpy or scipy.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
