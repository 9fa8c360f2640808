"""Experiment result records and text-table rendering.

Every benchmark collects :class:`ExperimentResult` rows and renders a
:class:`ResultTable` shaped like the corresponding table in the paper, so
``pytest benchmarks/ --benchmark-only`` output can be compared line by
line with the published numbers (recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence

from repro.cuda.runtime import CudaRuntime
from repro.units import to_gb


@dataclass
class ExperimentResult:
    """One (system, configuration) cell of an evaluation table."""

    system: str
    config: str  # e.g. "200%" or "batch=75"
    elapsed_seconds: float
    traffic_gb: float
    traffic_h2d_gb: float
    traffic_d2h_gb: float
    redundant_gb: float
    useful_gb: float
    counters: Dict[str, int] = field(default_factory=dict)
    #: Workload-specific headline metric (e.g. images/second).
    metric: Optional[float] = None
    #: Trace records the run's tracer dropped past
    #: ``TraceConfig.max_records`` (0 when untraced); > 0 means the
    #: trace is a prefix of the run, not a complete record.
    log_dropped: int = 0
    #: Byte-attribution summary (waste decomposition + per-buffer
    #: totals) — populated only when the driver retained transfer
    #: records (``keep_transfer_records=True``); ``None`` on the
    #: benchmark hot path.  See :mod:`repro.analysis`.
    attribution: Optional[Dict[str, object]] = None

    @classmethod
    def from_runtime(
        cls,
        runtime: CudaRuntime,
        system: str,
        config: str,
        metric: Optional[float] = None,
    ) -> "ExperimentResult":
        """Snapshot a finished runtime into a result row."""
        traffic = runtime.driver.traffic
        rmt = runtime.driver.rmt
        attribution = None
        if traffic.records:
            from repro.analysis.attribution import attribution_summary

            attribution = attribution_summary(runtime)
        return cls(
            system=system,
            config=config,
            elapsed_seconds=runtime.measured_seconds,
            traffic_gb=traffic.total_gb,
            traffic_h2d_gb=to_gb(traffic.bytes_h2d),
            traffic_d2h_gb=to_gb(traffic.bytes_d2h),
            redundant_gb=to_gb(rmt.redundant_bytes),
            useful_gb=to_gb(rmt.useful_bytes),
            counters=runtime.driver.counters.as_dict(),
            metric=metric,
            log_dropped=runtime.tracer.dropped,
            attribution=attribution,
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form, for the sweep cache and report files.

        ``attribution`` is omitted when ``None`` (the hot path) so
        pre-attribution caches and golden snapshots stay valid
        byte-for-byte — the same convention as an empty chaos tuple on
        :class:`SweepPoint`."""
        data = asdict(self)
        if data["attribution"] is None:
            del data["attribution"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict`; rejects unknown/missing fields so
        corrupt cache entries surface as errors, not garbage rows."""
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown result fields: {sorted(unknown)}")
        optional = ("counters", "metric", "log_dropped", "attribution")
        missing = {
            f.name
            for f in fields(cls)
            if f.name not in data and f.name not in optional
        }
        if missing:
            raise ValueError(f"missing result fields: {sorted(missing)}")
        return cls(**data)  # type: ignore[arg-type]


class ResultTable:
    """Systems x configurations grid of results, renderable as text."""

    def __init__(self, title: str, configs: Sequence[str]) -> None:
        self.title = title
        self.configs = list(configs)
        self._rows: "Dict[str, Dict[str, ExperimentResult]]" = {}

    def add(self, result: ExperimentResult) -> None:
        self._rows.setdefault(result.system, {})[result.config] = result

    def get(self, system: str, config: str) -> ExperimentResult:
        return self._rows[system][config]

    def systems(self) -> List[str]:
        return list(self._rows)

    def normalized_runtime(self, system: str, config: str, baseline: str) -> float:
        """Runtime relative to ``baseline`` in the same configuration."""
        base = self.get(baseline, config).elapsed_seconds
        if base == 0:
            return float("inf")
        return self.get(system, config).elapsed_seconds / base

    def render(
        self,
        value: str = "traffic_gb",
        baseline: Optional[str] = None,
        fmt: str = "{:.2f}",
    ) -> str:
        """Render one metric as a paper-style text table.

        ``value`` is an :class:`ExperimentResult` attribute name, or
        ``"normalized_runtime"`` (requires ``baseline``).
        """
        width = max(14, max((len(s) for s in self._rows), default=0) + 2)
        col = 10
        lines = [self.title]
        header = " " * width + "".join(f"{c:>{col}}" for c in self.configs)
        lines.append(header)
        for system, by_config in self._rows.items():
            cells = []
            for config in self.configs:
                result = by_config.get(config)
                if result is None:
                    cells.append(f"{'-':>{col}}")
                    continue
                if value == "normalized_runtime":
                    if baseline is None:
                        raise ValueError("normalized_runtime needs a baseline")
                    number = self.normalized_runtime(system, config, baseline)
                else:
                    number = getattr(result, value)
                if number is None:
                    cells.append(f"{'-':>{col}}")
                else:
                    cells.append(f"{fmt.format(number):>{col}}")
            lines.append(f"{system:<{width}}" + "".join(cells))
        return "\n".join(lines)
