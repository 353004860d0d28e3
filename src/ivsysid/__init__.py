"""Instrumental-variable identification of linear-in-parameters dynamics.

The pipeline: local polynomial filters (polyfilter) are split across
interleaved samples (splitfilters) to form regressors, responses and
instruments; the clipped IV estimator (estimator) solves for the parameter
matrix; bounds evaluates the theoretical error bounds; dynamics provides the
forced chaotic benchmark system; harness runs seeded Monte Carlo experiments.
Import from those submodules: the package root exports only __version__.
"""

__version__ = "0.1.0"
