"""Starts the reachability recorder of ``tools/reach.py`` in every Python
process that ``python -m tools.reach run`` starts (it puts this directory
first on ``PYTHONPATH``)."""

import importlib.util
import os

if os.environ.get("REACH_RECORD"):
    _spec = importlib.util.spec_from_file_location(
        "_reach", os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "reach.py")
    )
    assert _spec is not None and _spec.loader is not None
    _reach = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_reach)
    _reach.start(os.environ["REACH_RECORD"], os.environ["REACH_ROOT"])
