"""Price modeling pipeline for short-term rental listings.

Ingests listings/reviews CSV files, engineers textual, geospatial,
categorical and temporal features, trains regressors on log-price and
writes deterministic evaluation reports.
"""

__version__ = "0.1.0"


class InvariantError(RuntimeError):
    """An internal invariant failed; the computation cannot be trusted."""


class _Numpy:
    """numpy, imported on the first attribute read.

    Every module reads numpy through `from bnbprice import np`, so
    `ingest` and `synth`, which never compute with it, start without
    its import. A name read once is kept as a plain attribute, so later
    reads cost what a module attribute read does.
    """

    def __getattr__(self, name):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
