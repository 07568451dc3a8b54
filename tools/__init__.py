"""Development tools that run against this checkout and do not ship with
the ``repro`` package (``setuptools`` packages ``src/`` only)."""
