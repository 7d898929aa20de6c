"""Price modeling pipeline for short-term rental listings.

Ingests listings/reviews CSV files, engineers textual, geospatial,
categorical and temporal features, trains regressors on log-price and
writes deterministic evaluation reports.
"""

__version__ = "0.1.0"


class InvariantError(RuntimeError):
    """An internal invariant failed; the computation cannot be trusted."""
