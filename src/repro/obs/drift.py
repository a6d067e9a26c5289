"""Quantization drift monitor over the serving workers' layer samples.

The paper's output-directed scheme fixes one threshold per model, which
decides the share of *sensitive* (dense-path) outputs per layer; the
serving engines re-measure that ratio on live traffic.  When the live
distribution drifts from the one the threshold was chosen on, the
threshold stops being representative — accuracy and the dense/sparse
cost model both degrade silently.

:class:`DriftMonitor` watches the per-layer samples the thread-pool
workers take from each batch they run: it keeps an EWMA of each layer's
``sensitive_ratio`` and of its exec-path mix (sparse-path fraction of
dispatch calls), compares them against a baseline (the serving
session's warm-up ratios on held-out images), and

* logs a single ``drift_exceeded`` warning per band crossing (re-armed
  when the layer returns inside the band), so a drifting layer does not
  flood the logs, and
* publishes ``drift_sensitive_ratio:<layer>`` / ``drift_delta:<layer>``
  / ``drift_sparse_frac:<layer>`` / ``drift_alert:<layer>`` gauges on
  the serving ``/metrics`` registry.  The EWMAs and the warning update
  with every batch; the gauges are set from them by a registry
  collector when ``/metrics`` or ``/stats`` is read.

Thresholds are configured via ``ServeConfig.drift_band``.
"""

from __future__ import annotations

import threading

from repro.obs.log import get_logger

_log = get_logger("repro.obs.drift")

#: Default EWMA smoothing factor (weight of the newest sample).
DEFAULT_ALPHA = 0.2

#: Default alert band: |EWMA - baseline| above this fires the alert.
DEFAULT_BAND = 0.15


class DriftMonitor:
    """EWMA drift tracking of per-layer sensitivity vs. a baseline.

    Parameters
    ----------
    baseline:
        ``{layer: reference sensitive_ratio}``.  Layers that appear in
        samples but not here adopt their *first observed* ratio as
        baseline (self-anchoring), so partially calibrated engines still
        get drift coverage.
    alpha:
        EWMA smoothing factor in ``(0, 1]``; 1.0 tracks the latest
        sample exactly.
    band:
        Alert threshold on ``|ewma - baseline|``.
    metrics:
        Optional ``MetricsRegistry``; the monitor adds :meth:`publish` to
        its collectors, so the per-layer gauges are set whenever it is
        read.
    """

    def __init__(self, baseline: dict[str, float] | None = None,
                 alpha: float = DEFAULT_ALPHA, band: float = DEFAULT_BAND,
                 metrics=None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if band <= 0.0:
            raise ValueError(f"band must be positive, got {band}")
        self.alpha = float(alpha)
        self.band = float(band)
        self.metrics = metrics
        self._baseline: dict[str, float] = {
            k: float(v) for k, v in (baseline or {}).items()
        }
        self._ewma: dict[str, float] = {}
        self._sparse: dict[str, float] = {}
        self._alerting: set[str] = set()
        self._lock = threading.Lock()
        self.observations = 0
        if metrics is not None:
            metrics.add_collector(self.publish)

    # -- feeding -------------------------------------------------------------

    def observe(self, samples: dict[str, dict]) -> None:
        """Fold one batch of per-layer samples into the EWMAs.

        ``samples`` maps layer name to a dict with optional keys
        ``sensitive_ratio`` (float) and ``path_calls`` ({path: count}),
        both over one batch: the serving workers pass each batch's own
        numbers, so a sustained shift moves the EWMA at rate ``alpha``
        whatever the uptime.  Thread-safe.
        """
        crossings: list[tuple[str, float, float]] = []
        alpha, band = self.alpha, self.band
        with self._lock:
            self.observations += 1
            baseline, ewmas, sparses = self._baseline, self._ewma, self._sparse
            alerting = self._alerting
            for layer, sample in samples.items():
                ratio = sample.get("sensitive_ratio")
                if ratio is None:
                    continue
                ratio = float(ratio)
                base = baseline.setdefault(layer, ratio)
                prev = ewmas.get(layer)
                ewma = ratio if prev is None else (
                    alpha * ratio + (1.0 - alpha) * prev
                )
                ewmas[layer] = ewma
                sparse = _sparse_fraction(sample.get("path_calls"))
                if sparse is not None:
                    prev_s = sparses.get(layer)
                    sparse = sparse if prev_s is None else (
                        alpha * sparse + (1.0 - alpha) * prev_s
                    )
                    sparses[layer] = sparse
                if abs(ewma - base) > band:
                    if layer not in alerting:
                        alerting.add(layer)
                        crossings.append((layer, ewma, base))
                else:
                    alerting.discard(layer)
        for layer, ewma, base in crossings:
            _log.warning(
                "drift_exceeded",
                layer=layer,
                ewma=round(ewma, 6),
                baseline=round(base, 6),
                delta=round(ewma - base, 6),
                band=self.band,
            )

    def publish(self, metrics) -> None:
        """Set every observed layer's drift gauges on ``metrics``.

        The collector the monitor adds to its registry: it runs when
        ``/metrics`` or ``/stats`` is read, not per batch.
        """
        for layer, st in self.snapshot().items():
            metrics.gauge(
                f"drift_sensitive_ratio:{layer}",
                "EWMA of the live per-layer sensitive-output ratio",
            ).set(st["ewma"])
            metrics.gauge(
                f"drift_delta:{layer}",
                "EWMA sensitive ratio minus its warm-up baseline",
            ).set(st["delta"])
            metrics.gauge(
                f"drift_alert:{layer}",
                "1 when |drift_delta| exceeds the configured band",
            ).set(1.0 if st["alert"] else 0.0)
            if st["sparse_frac"] is not None:
                metrics.gauge(
                    f"drift_sparse_frac:{layer}",
                    "EWMA fraction of exec-path dispatches taking a sparse path",
                ).set(st["sparse_frac"])

    # -- inspection ----------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Per-layer drift state: ewma, baseline, delta, sparse, alert."""
        with self._lock:
            return {
                layer: {
                    "ewma": ewma,
                    "baseline": self._baseline[layer],
                    "delta": ewma - self._baseline[layer],
                    "sparse_frac": self._sparse.get(layer),
                    "alert": layer in self._alerting,
                }
                for layer, ewma in self._ewma.items()
            }

    def alerting(self) -> list[str]:
        """Layers currently outside the band (sorted)."""
        with self._lock:
            return sorted(self._alerting)


def _sparse_fraction(path_calls: dict | None) -> float | None:
    """Fraction of dispatch calls that took the sparse path.

    Path names are the ODQ result-generation paths that ran (``dense``
    or ``sparse``; ``auto`` resolves to one of them per call); anything
    not named ``dense`` counts as sparse.
    """
    if not path_calls:
        return None
    total = sparse = 0
    for path, calls in path_calls.items():
        calls = int(calls)
        total += calls
        if path != "dense":
            sparse += calls
    if total <= 0:
        return None
    return sparse / total


def baseline_from_engine(engine) -> dict[str, float]:
    """Drift baseline from an engine's layer records.

    Each layer that has seen outputs contributes ``sensitive_total /
    outputs_total``.  ``ModelSession`` takes it from the records of its
    warm-up inference on held-out images.
    """
    baseline: dict[str, float] = {}
    for name, rec in getattr(engine, "records", {}).items():
        if getattr(rec, "outputs_total", 0):
            baseline[name] = rec.sensitive_total / rec.outputs_total
    return baseline


__all__ = [
    "DriftMonitor",
    "baseline_from_engine",
    "DEFAULT_ALPHA",
    "DEFAULT_BAND",
]
