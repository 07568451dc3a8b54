"""Statistics and estimation: grid histograms and join selectivity (the
Section 3.2.3 scenario)."""

from repro.estimate.histogram import GridHistogram

__all__ = ["GridHistogram"]
