"""A small metrics registry with a Prometheus-style text exposition.

Counters and gauges with label sets, rendered in the Prometheus text
format (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value``
samples).  There is no HTTP endpoint — the registry renders to text so a
scrape shim, a file sink, or a test can consume it — and no external
dependency.

Two ingestion helpers map the repo's own observability objects onto
standard metric names:

* :meth:`MetricsRegistry.observe_join` — one executed join's
  :class:`~repro.core.result.JoinStats`;
* :meth:`MetricsRegistry.observe_trace` — exported span dicts (what
  :func:`repro.obs.export.read_trace` returns), so ``repro trace FILE
  --metrics OUT`` can turn any trace file into a scrapeable dump.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, List, Sequence, Tuple

_LabelKey = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds) for :meth:`MetricsRegistry.observe`
#: — the classic Prometheus ladder, wide enough for both in-memory joins
#: and 100k x 100k service queries.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{_escape(v)}"' for k, v in key) + "}"


class _Metric:
    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: Dict[_LabelKey, float] = {}


class _HistogramState:
    """Per-labelset histogram accumulator (cumulative on render only)."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        #: raw (non-cumulative) counts; the last slot is the +Inf bucket.
        self.bucket_counts = [0] * (n_buckets + 1)
        self.sum = 0.0
        self.count = 0


class _Histogram:
    __slots__ = ("name", "kind", "help", "buckets", "samples")

    def __init__(
        self, name: str, help_text: str, buckets: Sequence[float]
    ) -> None:
        self.name = name
        self.kind = "histogram"
        self.help = help_text
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self.samples: Dict[_LabelKey, _HistogramState] = {}

    def observe(self, value: float, key: _LabelKey) -> None:
        state = self.samples.get(key)
        if state is None:
            state = _HistogramState(len(self.buckets))
            self.samples[key] = state
        state.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        state.sum += value
        state.count += 1

    def quantile(self, q: float, key: _LabelKey) -> float:
        """Estimated q-quantile from the bucket counts.

        Linear interpolation inside the containing bucket — the same
        estimate PromQL's ``histogram_quantile`` computes.  Always
        returns a finite value: mass in the +Inf bucket (explicit or
        the implicit overflow slot) clamps to the largest finite edge,
        ``q`` is clamped into ``[0, 1]``, an unobserved label set
        returns 0.0, and a histogram with no finite edges at all falls
        back to the observed mean (0.0 if even that overflowed) — so
        no ``inf``/``nan`` ever leaks into stats exports.
        """
        state = self.samples.get(key)
        if state is None or state.count == 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        clamp = 0.0
        for edge in reversed(self.buckets):
            if math.isfinite(edge):
                clamp = edge
                break
        else:
            # No finite edge to interpolate on: every observation sits
            # in an infinite bucket, so the mean is the best estimate.
            mean = state.sum / state.count
            return mean if math.isfinite(mean) else 0.0
        rank = q * state.count
        seen = 0.0
        for idx, bucket_count in enumerate(state.bucket_counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                if idx >= len(self.buckets) or not math.isfinite(
                    self.buckets[idx]
                ):
                    return clamp  # +Inf bucket
                lo = self.buckets[idx - 1] if idx > 0 else 0.0
                if not math.isfinite(lo):
                    lo = 0.0
                hi = self.buckets[idx]
                fraction = (rank - seen) / bucket_count
                return lo + (hi - lo) * fraction
            seen += bucket_count
        return clamp


class MetricsRegistry:
    """Named counters and gauges with labels, exported as Prometheus text."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._histograms: Dict[str, _Histogram] = {}

    # ------------------------------------------------------------------
    # registration & updates
    # ------------------------------------------------------------------
    def _declare(self, name: str, kind: str, help_text: str) -> _Metric:
        if name in self._histograms:
            raise ValueError(f"metric {name!r} already registered as histogram")
        metric = self._metrics.get(name)
        if metric is None:
            metric = _Metric(name, kind, help_text)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def _declare_histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float],
    ) -> _Histogram:
        if name in self._metrics:
            raise ValueError(
                f"metric {name!r} already registered as"
                f" {self._metrics[name].kind}"
            )
        hist = self._histograms.get(name)
        if hist is None:
            hist = _Histogram(name, help_text, buckets)
            self._histograms[name] = hist
        return hist

    def counter(self, name: str, help_text: str = "") -> None:
        """Declare a monotonically increasing counter."""
        self._declare(name, "counter", help_text)

    def gauge(self, name: str, help_text: str = "") -> None:
        """Declare a gauge (set to the latest observed value)."""
        self._declare(name, "gauge", help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Declare a histogram (bucketed distribution of observations)."""
        self._declare_histogram(name, help_text, buckets)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one observation into a histogram (declared implicitly
        with :data:`DEFAULT_BUCKETS` on first use)."""
        hist = self._declare_histogram(name, "", DEFAULT_BUCKETS)
        hist.observe(value, _label_key(labels))

    def quantile(self, name: str, q: float, **labels: str) -> float:
        """Estimated *q*-quantile of a histogram (0.0 when never observed)."""
        hist = self._histograms.get(name)
        if hist is None:
            return 0.0
        return hist.quantile(q, _label_key(labels))

    def histogram_count(self, name: str, **labels: str) -> int:
        """Total observations recorded into one histogram labelset."""
        hist = self._histograms.get(name)
        if hist is None:
            return 0
        state = hist.samples.get(_label_key(labels))
        return 0 if state is None else state.count

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        """Increment a counter (declared implicitly on first use)."""
        self.inc_labels(name, value, labels)

    def inc_labels(self, name: str, value: float, labels: Dict[str, object]) -> None:
        """Like :meth:`inc`, with the labels as a dict — required when a
        label is itself called ``name`` or ``value``."""
        metric = self._declare(name, "counter", "")
        key = _label_key(labels)
        metric.samples[key] = metric.samples.get(key, 0.0) + value

    def set(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge (declared implicitly on first use)."""
        metric = self._declare(name, "gauge", "")
        metric.samples[_label_key(labels)] = value

    def get(self, name: str, **labels: str) -> float:
        """Read back one sample (0.0 when never observed)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        return metric.samples.get(_label_key(labels), 0.0)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def observe_join(self, stats: Any, **labels: str) -> None:
        """Record one executed join's :class:`JoinStats` into the registry."""
        base = dict(labels)
        base.setdefault("algorithm", stats.algorithm)
        self.counter("repro_join_runs_total", "Executed joins")
        self.inc("repro_join_runs_total", 1, **base)
        self.counter("repro_join_results_total", "Result pairs reported")
        self.inc("repro_join_results_total", stats.n_results, **base)
        self.counter(
            "repro_join_duplicates_suppressed_total",
            "Pairs suppressed online by the Reference Point Method",
        )
        self.inc(
            "repro_join_duplicates_suppressed_total",
            stats.duplicates_suppressed,
            **base,
        )
        self.counter("repro_join_io_units_total", "Simulated I/O units")
        self.inc("repro_join_io_units_total", stats.io_units, **base)
        self.counter(
            "repro_join_wall_seconds_total", "Wall seconds per phase"
        )
        for phase, seconds in stats.wall_seconds_by_phase.items():
            self.inc(
                "repro_join_wall_seconds_total", seconds, phase=phase, **base
            )
        if stats.join_busy_seconds:
            self.gauge(
                "repro_join_busy_seconds",
                "Sum of per-task wall seconds measured inside workers",
            )
            self.set("repro_join_busy_seconds", stats.join_busy_seconds, **base)
        if stats.join_makespan_seconds:
            self.gauge(
                "repro_join_makespan_seconds",
                "Parent-observed elapsed time of the parallel task fan-out",
            )
            self.set(
                "repro_join_makespan_seconds",
                stats.join_makespan_seconds,
                **base,
            )
        if stats.n_workers > 1 and stats.join_makespan_seconds:
            self.gauge(
                "repro_join_worker_utilization",
                "Busy fraction of the paid worker-seconds "
                "(busy / (makespan x workers))",
            )
            self.set(
                "repro_join_worker_utilization",
                stats.worker_utilization,
                **base,
            )
            self.gauge(
                "repro_join_scheduler_idle_seconds",
                "Worker-seconds the fan-out paid for but did not fill",
            )
            self.set(
                "repro_join_scheduler_idle_seconds",
                stats.scheduler_idle_seconds,
                **base,
            )
        if stats.ipc_bytes_shipped:
            self.counter(
                "repro_join_ipc_bytes_total",
                "Bytes shipped across the process boundary",
            )
            self.inc(
                "repro_join_ipc_bytes_total", stats.ipc_bytes_shipped, **base
            )
            self.gauge(
                "repro_join_ipc_seconds",
                "Parent-side serialisation seconds of the last fan-out",
            )
            self.set("repro_join_ipc_seconds", stats.ipc_seconds, **base)

    def observe_trace(self, spans: Sequence[dict], **labels: str) -> None:
        """Record exported span dicts (see :func:`repro.obs.export.read_trace`)."""
        self.counter("repro_trace_spans_total", "Spans per kind")
        self.counter(
            "repro_trace_wall_seconds_total", "Wall seconds per span kind/name"
        )
        for span in spans:
            self.inc(
                "repro_trace_spans_total", 1, kind=span["kind"], **labels
            )
            # A label is literally called "name" here, which would collide
            # with inc()'s metric-name parameter — hence the dict form.
            self.inc_labels(
                "repro_trace_wall_seconds_total",
                span["wall_seconds"],
                {"kind": span["kind"], "name": span["name"], **labels},
            )

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(set(self._metrics) | set(self._histograms)):
            metric = self._metrics.get(name)
            if metric is not None:
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for key in sorted(metric.samples):
                    value = metric.samples[key]
                    lines.append(f"{name}{_render_labels(key)} {value:g}")
                continue
            hist = self._histograms[name]
            if hist.help:
                lines.append(f"# HELP {name} {hist.help}")
            lines.append(f"# TYPE {name} histogram")
            for key in sorted(hist.samples):
                state = hist.samples[key]
                cumulative = 0
                for edge, count in zip(hist.buckets, state.bucket_counts):
                    cumulative += count
                    le_key = key + (("le", f"{edge:g}"),)
                    lines.append(
                        f"{name}_bucket{_render_labels(le_key)} {cumulative}"
                    )
                inf_key = key + (("le", "+Inf"),)
                lines.append(
                    f"{name}_bucket{_render_labels(inf_key)} {state.count}"
                )
                lines.append(f"{name}_sum{_render_labels(key)} {state.sum:g}")
                lines.append(f"{name}_count{_render_labels(key)} {state.count}")
        return "\n".join(lines) + ("\n" if lines else "")
