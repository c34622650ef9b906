"""Raw-sample histogram: the reference for the bounded histogram.

:class:`Histogram` keeps every observed value per label set, so its
nearest-rank percentiles are exact. Production registries hand out the
fixed-memory :class:`~repro.obs.metrics.BoundedHistogram`; the
differential tests compare it with this class on the same samples.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import (
    PERCENTILES,
    LabelKey,
    _Instrument,
    _label_key,
    percentile_of,
)


class _BoundRawHistogram:
    """Pre-resolved raw-histogram handle (appends to the sample list)."""

    __slots__ = ("_series", "_key")

    def __init__(self, series: Dict[LabelKey, Any], key: LabelKey) -> None:
        self._series = series
        self._key = key

    def observe(self, value: float) -> None:
        samples = self._series.get(self._key)
        if samples is None:
            samples = self._series[self._key] = []
        samples.append(value)


class Histogram(_Instrument):
    """Raw-sample distribution with the bounded histogram's surface."""

    kind = "histogram"

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        samples = self._series.get(key)
        if samples is None:
            samples = self._series[key] = []
        samples.append(value)

    def bind(self, **labels: Any) -> _BoundRawHistogram:
        """A fast handle pre-resolved to one label set."""
        return _BoundRawHistogram(self._series, self._key(labels))

    def values(self, **labels: Any) -> List[float]:
        return list(self._series.get(_label_key(labels), []))

    def count(self, **labels: Any) -> int:
        return len(self._series.get(_label_key(labels), []))

    def sum(self, **labels: Any) -> float:
        return sum(self._series.get(_label_key(labels), []))

    def min(self, **labels: Any) -> Optional[float]:
        samples = self._series.get(_label_key(labels))
        return min(samples) if samples else None

    def max(self, **labels: Any) -> Optional[float]:
        samples = self._series.get(_label_key(labels))
        return max(samples) if samples else None

    def mean(self, **labels: Any) -> Optional[float]:
        samples = self._series.get(_label_key(labels))
        return sum(samples) / len(samples) if samples else None

    def percentile(self, q: float, **labels: Any) -> Optional[float]:
        """Nearest-rank percentile of one series (``None`` when empty)."""
        return percentile_of(self._series.get(_label_key(labels), []), q)

    def _snapshot_value(self, value: List[float]) -> Dict[str, float]:
        summary = {
            "count": len(value),
            "sum": sum(value),
            "min": min(value),
            "max": max(value),
        }
        for q in PERCENTILES:
            summary["p%d" % q] = percentile_of(value, q)
        return summary
