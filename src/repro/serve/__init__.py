"""The always-on join service: ``repro serve`` and its load harness.

The subsystem turns the one-shot engine into a long-running server that
amortises the expensive parts across queries — datasets load (and pin
into shared memory) once, the worker pool spawns once, and plans cache
across requests.  See ``docs/serving.md`` for the protocol and the
operational story.

Layering (no cycles, blocking code never touches the event loop):

* :mod:`repro.serve.protocol` — wire format, checksums (pure functions);
* :mod:`repro.serve.executor` — the ``run_blocking`` seam (RPL007);
* :mod:`repro.serve.registry` — named datasets, shared-memory pinning;
* :mod:`repro.serve.admission` — slots, queue bound, cost budget;
* :mod:`repro.serve.engine` — persistent pool + shared planner cache;
* :mod:`repro.serve.server` — the asyncio server tying it together;
* :mod:`repro.serve.client` / :mod:`repro.serve.loadgen` — the consumer
  side: protocol client and the closed-loop load harness.
"""

from repro.serve.admission import AdmissionController, AdmissionReject
from repro.serve.client import ServeClient
from repro.serve.engine import EngineHost
from repro.serve.loadgen import run_load
from repro.serve.protocol import result_checksum
from repro.serve.registry import Dataset, DatasetRegistry
from repro.serve.server import JoinServer

__all__ = [
    "AdmissionController",
    "AdmissionReject",
    "Dataset",
    "DatasetRegistry",
    "EngineHost",
    "JoinServer",
    "ServeClient",
    "result_checksum",
    "run_load",
]
