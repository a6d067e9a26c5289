"""Output-Directed Dynamic Quantization — the paper's core contribution.

The two-step, single-shot scheme of Section 3:

* **Sensitivity prediction.**  Inputs and weights are quantized to INT4
  and split into 2-bit high/low planes.  The predictor convolves only the
  high planes (``I_HBS * W_HBS``, the dominant Eq.-3 term, shifted left by
  ``2*N_LBS``), dequantizes, and thresholds the magnitude to produce a
  sensitivity bit mask over output features.
* **Result generation.**  For predicted-sensitive outputs only, the three
  remaining cross terms of Eq. 3 are computed and added, yielding the
  exact INT4xINT4 result.  Insensitive outputs keep the predictor's cheap
  partial value ("ODQ produces the final output [by] adding the results
  from both the sensitivity predictor and the result executor").

The executor here is numerically faithful: the value returned for a
sensitive output equals a full INT4 static-quantization conv, and the
value for an insensitive output equals the HBS-only partial — tests
verify both identities term-by-term against
:func:`repro.quant.bitsplit.cross_terms`.

Execution paths
---------------
Historically the software executor computed the dense full-INT4 result
for *every* output and ``np.where``-selected, so the ``macs_skipped``
the obs profile reports never became wall-clock savings.  The executor
now mirrors the paper's hardware dataflow (and DRQ's region-wise
executor): all per-call preparation is done once in a
:class:`~repro.core.colcache.ColumnCache`, and result generation picks
between

``dense``
    the full column matrix times the packed full operand, one image's
    rows per GEMM, as the predictor runs (wins when most outputs are
    sensitive — the gather/scatter overhead is not worth it);
``sparse``
    gather only the *sensitive rows* of the column matrix (rows whose
    spatial position has at least one sensitive output channel), one
    GEMM against the packed full operand, scatter the exact rows into
    the predictor partial — bit-exact with the dense path (see
    :mod:`repro.core.colcache` for the exactness argument).  The
    hardware's executor clusters compute the same integers as the three
    remaining Eq.-3 cross terms (:func:`repro.quant.bitsplit.cross_terms`).
    Software multiplies the 1x-width full operand instead, in the
    narrowest float dtype the INT4 accumulator bound keeps exact
    (:func:`~repro.core.colcache.exact_gemm_dtype`, float32 for INT4):
    a float GEMM has no narrower-than-float32 discount to give the
    2-bit planes;
``auto``
    per layer-call dispatch on the sensitive-row density against
    :data:`SPARSE_ROW_CROSSOVER` (measured in
    ``benchmarks/bench_odq_sparse.py``).

One function, :func:`odq_conv`, implements the per-call numerics for all
three paths.  ``ODQConvExecutor.run``, compiled plan steps
(:mod:`repro.core.plan`) and the QAT layer (via :func:`odq_mixed_conv`)
all call it with their own operands and GEMM callables.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable

import numpy as np

from repro.config import ODQ_LOW_BITS, ODQ_TOTAL_BITS
from repro.core.base import ConvExecutor
from repro.core.colcache import (
    ColumnCache,
    ConvGeometry,
    PackedConvWeights,
    pack_conv_weights,
)
# The launcher of benchmarks/e2e rebinds this module's ``pgemm`` to time
# GEMMs, so the kernel resolves it at call time, not as a default value.
from repro.core.gemm import pgemm
from repro.core.masks import SensitivityMask, mask_from_magnitude
from repro.obs import trace
from repro.nn.layers import Conv2d
from repro.quant.uniform import QParams, affine_qparams, quantize, symmetric_qparams

#: Result-generation paths accepted by the executor / scheme / CLI knob.
EXEC_PATHS = ("auto", "dense", "sparse")

#: ``auto`` dispatch crossover: fraction of output *rows* (spatial
#: positions with >= 1 sensitive channel) below which the sparse
#: gather/GEMM/scatter beats the dense GEMM.  Pure FLOPs break even at
#: 1.0 (the sparse GEMM uses the same full operand, just fewer rows);
#: the gather's patch-copy and the scatter pull the measured crossover
#: down — benchmarks/bench_odq_sparse.py measured a median of 0.83 over
#: five runs on resnet20/cifar10 at default scale (0.78-0.92, 2-core
#: host), and 0.825 (0.82-0.85) over five runs with the float32 INT4
#: operands, so only masks with most rows sensitive go dense.
SPARSE_ROW_CROSSOVER = 0.83

#: A GEMM callable with :func:`~repro.core.gemm.pgemm`'s signature.
GemmFn = Callable[..., np.ndarray]


def odq_weight_qparams(
    w: np.ndarray, total_bits: int, percentile: float = 97.0
) -> QParams:
    """Weight quantizer for ODQ: symmetric, percentile-clipped scale.

    DoReFa training (which the paper builds on) spreads weights uniformly
    over the quantized levels, so their high-order 2 bits carry signal.
    Post-training max-abs scaling does not — outlier weights inflate the
    scale until nearly every weight quantizes into [-3, 3], whose
    sign-magnitude high plane is 0 and the predictor goes blind.
    Clipping the scale at a high percentile of |w| restores level
    occupancy (saturating only the outlier tail), which is the
    post-training analog of DoReFa's weight transform.
    """
    if not 50.0 < percentile <= 100.0:
        raise ValueError("percentile must be in (50, 100]")
    if w.size == 0:
        raise ValueError("cannot derive weight qparams from an empty tensor")
    if percentile >= 100.0:
        scale_src = float(np.max(np.abs(w)))
    else:
        scale_src = float(np.percentile(np.abs(w), percentile))
    return symmetric_qparams(max(scale_src, 1e-8), total_bits)


def _image_gemm(cache: ColumnCache, high: bool, wmat: np.ndarray,
                mm: GemmFn) -> np.ndarray:
    """``cols @ wmat`` (``cols_high`` when ``high``), ``(rows, C_out)``.

    One image's columns are unfolded and multiplied at a time, each GEMM
    writing its rows of the one preallocated result, so the whole-batch
    column matrix is never built.  At batch 1 this is a single GEMM.
    Every entry is an exact integer (module docstring of
    :mod:`repro.core.colcache`), so splitting the rows changes no bit.
    """
    if cache.n == 1:
        return mm(cache.image_cols(0, high), wmat)
    acc = np.empty((cache.rows, wmat.shape[1]), dtype=wmat.dtype)
    step = cache.oh * cache.ow
    for i in range(cache.n):
        mm(cache.image_cols(i, high), wmat, out=acc[i * step : (i + 1) * step])
    return acc


def _partial_2d(cache: ColumnCache, packed: PackedConvWeights, scale: float,
                bias2d: np.ndarray | None, mm: GemmFn) -> np.ndarray:
    """Dequantized predictor partial (plus bias) in (rows, C_out) layout.

    ``scale * (hh * 2**shift + (e_low - zp) * w_sum) + bias``, evaluated
    in place in the one float64 result: the shift is exact in either
    dtype and each later step rounds as the out-of-place expression does.
    """
    hh2d = _image_gemm(cache, True, packed.wmat_high, mm)
    partial2d = np.multiply(hh2d, float(1 << packed.high_shift), dtype=np.float64)
    partial2d += (cache.e_low - cache.qp_a.zero_point) * packed.w_sum
    partial2d *= scale
    if bias2d is not None:
        partial2d += bias2d
    return partial2d


def _full_2d(cache: ColumnCache, acc: np.ndarray, packed: PackedConvWeights,
             scale: float, bias2d: np.ndarray | None) -> np.ndarray:
    """Exact INT4 static-quantization output from the ``cols @ wmat_full``
    accumulator ``acc``, (rows, C_out).

    The dense path passes every row's accumulator; the sparse path only
    the gathered sensitive rows', so its result is the dense expression
    restricted to those rows and bit-exact by construction.
    """
    full2d = np.subtract(acc, cache.qp_a.zero_point * packed.w_sum,
                         dtype=np.float64)
    full2d *= scale
    if bias2d is not None:
        full2d += bias2d
    return full2d


class ConvResult:
    """Everything one :func:`odq_conv` call produced.

    ``out`` (NCHW) is the full result where sensitive and the partial
    elsewhere, ``path`` the result-generation path that ran and
    ``cache`` the call's :class:`ColumnCache`.  The other results are
    NCHW views built on first read, since serving reads only ``out``:
    ``partial`` is the predictor partial (see ``keep_partial``),
    ``full`` the dense full result (None when sparse ran) and ``mask``
    the call's :class:`SensitivityMask`.
    """

    __slots__ = ("out", "path", "cache", "_partial2d", "_full2d", "_sense2d",
                 "_threshold", "_mask")

    def __init__(self, out, path, cache, partial2d, full2d, sense2d,
                 threshold) -> None:
        self.out = out
        self.path = path
        self.cache = cache
        self._partial2d = partial2d
        self._full2d = full2d
        self._sense2d = sense2d
        self._threshold = threshold
        self._mask: SensitivityMask | None = None

    @property
    def partial(self) -> np.ndarray:
        return self.cache.to_nchw(self._partial2d)

    @property
    def full(self) -> np.ndarray | None:
        return None if self._full2d is None else self.cache.to_nchw(self._full2d)

    @property
    def mask(self) -> SensitivityMask:
        if self._mask is None:
            self._mask = SensitivityMask(
                self.cache.to_nchw(self._sense2d), self._threshold
            )
        return self._mask


def odq_conv(
    x: np.ndarray,
    prep: Callable[[np.ndarray], ColumnCache],
    packed: PackedConvWeights,
    w_scale: float,
    bias2d: np.ndarray | None,
    threshold: float,
    exec_path: str,
    crossover: float,
    *,
    ex: ODQConvExecutor | None = None,
    gemm: GemmFn | None = None,
    gemm_rows: GemmFn | None = None,
    keep_partial: bool = False,
) -> ConvResult:
    """One ODQ layer call: predict, mask, then exact results where sensitive.

    The single implementation of the per-call numerics, shared by
    :meth:`ODQConvExecutor.run`, compiled plan steps and
    :func:`odq_mixed_conv`.

    ``prep`` builds the call's :class:`ColumnCache` from ``x``;
    ``w_scale`` is the weight scale and ``bias2d`` the ``(1, C_out)``
    bias.  ``exec_path`` ``auto`` runs sparse when at most
    ``crossover * rows`` rows hold a sensitive output.  ``gemm`` runs the
    predictor and dense GEMMs and ``gemm_rows`` the sparse gathered-row
    GEMM; both default to :func:`~repro.core.gemm.pgemm`.

    With ``ex``, the call is accounted on that executor's record: shapes,
    the mask, the exec-path census, MACs, the wall time of each of the
    four phases (quantize, predict_partial, mask, full_result) and, when
    the executor collects them, partial-magnitude samples (timed with
    the mask).  The sparse path scatters the exact rows into the partial
    in place unless ``keep_partial`` is set.

    Emits one ``odq.run`` span carrying ``layer``, ``path`` and the
    call's phase durations (``quantize_ns`` … ``full_result_ns``); a
    no-op while tracing is off.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    mm = pgemm if gemm is None else gemm
    mm_rows = pgemm if gemm_rows is None else gemm_rows
    ckk, c_out = packed.wmat_full.shape

    with trace.span("odq.run", layer=None if ex is None else ex.info.name) as sp:
        t0 = perf_counter_ns()
        cache = prep(x)
        t1 = perf_counter_ns()
        scale = cache.qp_a.scale * w_scale
        partial2d = _partial_2d(cache, packed, scale, bias2d, mm)
        t2 = perf_counter_ns()
        if ex is not None and ex.collect_partials:
            flat = np.abs(cache.to_nchw(partial2d)).reshape(-1)
            step = max(1, flat.size // 4096)
            ex.record.extra.setdefault("partial_abs_samples", []).append(flat[::step])
        # The predictor rule (mask_from_magnitude) in the GEMM's
        # (rows, C_out) layout, where a row is one spatial output
        # position: the sparse path computes a row when *any* of its
        # channels is sensitive.  Reductions run over the channel-major
        # copy (SensitivityMask.by_channel), whose rows are long and
        # contiguous; over (rows, C_out) their inner loops are C_out long.
        sense2d = np.abs(partial2d) > threshold
        by_channel = np.ascontiguousarray(sense2d.T)
        sel = np.logical_or.reduce(by_channel, 0).nonzero()[0]
        n_sense_rows = sel.size
        t3 = perf_counter_ns()

        rows = cache.rows
        path = exec_path
        if path == "auto":
            path = "sparse" if n_sense_rows <= crossover * rows else "dense"
        if path == "dense":
            acc = _image_gemm(cache, False, packed.wmat_full, mm)
            full2d = _full_2d(cache, acc, packed, scale, bias2d)
            out2d = np.where(sense2d, full2d, partial2d)
            rows_computed = rows
        else:
            full2d = None
            out2d = partial2d.copy() if keep_partial else partial2d
            if n_sense_rows:
                acc = mm_rows(cache.full_rows(sel), packed.wmat_full)
                full_rows = _full_2d(cache, acc, packed, scale, bias2d)
                out2d[sel] = np.where(sense2d[sel], full_rows, out2d[sel])
            rows_computed = n_sense_rows
        t4 = perf_counter_ns()

        result = ConvResult(cache.to_nchw(out2d), path, cache, partial2d, full2d,
                            sense2d, threshold)
        phase_ns = (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        if ex is not None:
            counts = np.add.reduce(by_channel, 1, np.int64)
            n_sense = int(np.add.reduce(counts))
            rec = ex.record
            rec.add_outputs(cache.n, cache.oh, cache.ow)
            rec.add_counts(counts, n_sense)
            rec.last_mask = result.mask if ex.keep_masks else None
            rec.path_calls[path] += 1
            rec.rows_total += rows
            rec.rows_computed += rows_computed
            rec.flops_full += rows_computed * ckk * c_out
            rec.flops_full_dense += rows * ckk * c_out
            # One output costs C_in*K*K MACs: the predictor's INT2 stream
            # runs over every output, the executor's remaining cross
            # terms only over the sensitive ones.
            rec.macs["pred_int2"] += partial2d.size * ckk
            rec.macs["exec_int4"] += n_sense * ckk
            rec.add_phases(phase_ns)
        sp.set(path=path, quantize_ns=phase_ns[0], predict_partial_ns=phase_ns[1],
               mask_ns=phase_ns[2], full_result_ns=phase_ns[3])
    return result


def odq_mixed_conv(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    threshold: float,
    qp_a: QParams,
    qp_w: QParams,
    low_bits: int = ODQ_LOW_BITS,
    compensate_low_bits: bool = True,
    exec_path: str = "dense",
    with_cache: bool = False,
) -> dict:
    """The ODQ two-step forward pass as a pure function (QAT's forward).

    Returns ``{"out", "mask", "partial", "full", "exec_path"}`` where
    ``out`` equals ``full`` at sensitive positions and ``partial``
    elsewhere.  Runs the same :func:`odq_conv` kernel as the inference
    executor, so training and deployment see identical semantics.

    ``compensate_low_bits`` adds the expected low-plane contribution
    ``E[q_l] * sum(qw)`` (a per-channel constant — free in hardware, the
    Im2col/Pack engine already touches the full 4-bit operands) to the
    predictor partial.  The HBS-only partial truncates the activations'
    low two bits, whose mean is positive, so the raw partial consistently
    underestimates output magnitude; the correction roughly halves the
    predictor's miss rate (measured in tests/core/test_odq.py).

    ``exec_path`` selects result generation (see module docstring).  The
    default ``"dense"`` always materialises the dense ``"full"`` array
    (the QAT layer reads its statistics); under ``"sparse"``/``"auto"``
    the full result is only computed at sensitive rows, ``out`` is still
    exact, and ``"full"`` is ``None`` whenever the sparse path ran.

    ``with_cache`` additionally returns the per-call
    :class:`~repro.core.colcache.ColumnCache` under ``"cache"`` (and the
    packed weights under ``"packed"``) so callers (the QAT backward
    pass) can reuse the column matrix instead of re-unfolding the input.
    Its whole-batch :attr:`~repro.core.colcache.ColumnCache.cols` is then
    built before the kernel runs, which reads its per-image row slices.
    """
    if exec_path not in EXEC_PATHS:
        raise ValueError(f"unknown exec_path {exec_path!r}; expected one of {EXEC_PATHS}")
    qw = quantize(weight, qp_w)
    packed = pack_conv_weights(qw, qp_w, low_bits, a_max=2**qp_a.bits - 1)
    kernel = weight.shape[2]

    def prep(inp: np.ndarray) -> ColumnCache:
        cache = ColumnCache(
            inp, qp_a, kernel, stride, padding, low_bits, compensate_low_bits,
            dtype=packed.dtype, a_max=packed.a_max,
        )
        if with_cache:
            cache.cols  # unfold once; the kernel slices it per image
        return cache

    r = odq_conv(
        x, prep, packed, qp_w.scale,
        None if bias is None else bias.reshape(1, -1),
        threshold, exec_path, SPARSE_ROW_CROSSOVER, keep_partial=True,
    )
    result = {"out": r.out, "mask": r.mask, "partial": r.partial,
              "full": r.full, "exec_path": r.path}
    if with_cache:
        result["cache"] = r.cache
        result["packed"] = packed
    return result


class ODQConvExecutor(ConvExecutor):
    """One convolution layer under output-directed dynamic quantization.

    Parameters
    ----------
    conv:
        The trained full-precision layer being executed.
    name:
        Dotted module path (used in reports and mask dumps).
    threshold:
        Sensitivity threshold compared against the magnitude of the
        *dequantized* predictor partial result.  The paper uses one
        threshold per model (Table 3); see ``repro.core.threshold`` for
        the adaptive search that chooses it.
    total_bits / low_bits:
        Operand width and low-plane width; the paper's instance is 4/2.
    exec_path:
        Result-generation path: ``"auto"`` (default; per-call dispatch on
        sensitive-row density), ``"dense"``, or ``"sparse"``.  All three
        are bit-exact; only wall-clock differs.
    sparse_crossover:
        ``auto`` picks the sparse path when the fraction of output rows
        containing at least one sensitive channel is at or below this.
    keep_masks:
        Keep each call's mask on ``record.last_mask``.  The serving
        registry (:func:`~repro.core.schemes.build_scheme`) turns it off;
        the counts the census reads are kept either way.

    After :meth:`freeze` the executor holds ``qp_w`` and one
    :class:`~repro.core.colcache.PackedConvWeights`, and nothing else
    derived from the weights: the packed operands are what every call
    multiplies, and clones of the engine share them.
    """

    def __init__(
        self,
        conv: Conv2d,
        name: str,
        threshold: float,
        total_bits: int = ODQ_TOTAL_BITS,
        low_bits: int = ODQ_LOW_BITS,
        keep_masks: bool = True,
        collect_partials: bool = False,
        weight_percentile: float = 97.0,
        compensate_low_bits: bool = True,
        threshold_mode: str = "absolute",
        exec_path: str = "auto",
        sparse_crossover: float = SPARSE_ROW_CROSSOVER,
    ) -> None:
        super().__init__(conv, name)
        self.collect_partials = collect_partials
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if not 0 < low_bits < total_bits:
            raise ValueError("need 0 < low_bits < total_bits")
        if exec_path not in EXEC_PATHS:
            raise ValueError(
                f"unknown exec_path {exec_path!r}; expected one of {EXEC_PATHS}"
            )
        if not 0.0 <= sparse_crossover <= 1.0:
            raise ValueError("sparse_crossover must be in [0, 1]")
        self.threshold = threshold
        self.total_bits = total_bits
        self.low_bits = low_bits
        self.keep_masks = keep_masks
        self.weight_percentile = weight_percentile
        #: Per-channel E[q_l]*sum(qw) correction of the predictor partial
        #: (see odq_mixed_conv); disable to get the raw Eq.-3 HH term.
        self.compensate_low_bits = compensate_low_bits
        #: Result-generation path knob (``auto|dense|sparse``).
        self.exec_path = exec_path
        self.sparse_crossover = sparse_crossover
        #: "absolute": compare |partial| against ``threshold`` directly
        #: (the paper's rule; meaningful when layer output scales are
        #: uniform, as DoReFa training makes them).  "scaled": compare
        #: against ``threshold * std(layer output)`` with the std frozen
        #: at calibration — the substrate adaptation that restores the
        #: paper's one-threshold-per-model property when output scales
        #: vary across layers (see DESIGN.md).
        if threshold_mode not in ("absolute", "scaled"):
            raise ValueError(f"unknown threshold_mode {threshold_mode!r}")
        self.threshold_mode = threshold_mode
        self.output_std: float | None = None
        self._std_acc: list[float] = []

        self.qp_w: QParams | None = None
        self._packed: PackedConvWeights | None = None  # GEMM operands
        self._geom: ConvGeometry | None = None  # last call's input geometry

    # -- calibration -------------------------------------------------------------

    @property
    def reads_calibration(self) -> bool:
        """Only scaled mode reads calibration data (the output std);
        activation qparams come from each call's own range."""
        return self.threshold_mode == "scaled"

    def calibrate(self, x: np.ndarray) -> np.ndarray:
        out = self.reference_forward(x)
        if self.threshold_mode == "scaled":
            self._std_acc.append(float(out.std()))
        return out

    def freeze(self) -> None:
        w = self.conv.weight.data
        self.qp_w = odq_weight_qparams(w, self.total_bits, self.weight_percentile)
        if self.threshold_mode == "scaled":
            self.output_std = float(np.mean(self._std_acc)) if self._std_acc else 1.0
        self._packed = pack_conv_weights(
            quantize(w, self.qp_w), self.qp_w, self.low_bits,
            a_max=2**self.total_bits - 1,
        )
        super().freeze()

    def _qp_a_for(self, x: np.ndarray) -> QParams:
        """Activation qparams from the batch's range (runtime quantization)."""
        # x.min() / x.max() without numpy's Python-level method wrappers.
        return affine_qparams(
            float(np.minimum.reduce(x, None)),
            float(np.maximum.reduce(x, None)),
            self.total_bits,
        )

    @property
    def effective_threshold(self) -> float:
        """The absolute magnitude the mask actually compares against."""
        if self.threshold_mode == "scaled":
            sigma = self.output_std if self.output_std else 1.0
            return self.threshold * sigma
        return self.threshold

    # -- shared per-call preparation --------------------------------------------

    def _build_cache(self, x: np.ndarray,
                     compensate: bool | None = None) -> ColumnCache:
        """Quantize → pad → im2col exactly once for this layer call.

        The geometry of the previous call is reused while the input's
        ``(C, H, W)`` stays the same (one shape per layer in a model).
        """
        conv = self.conv
        cache = ColumnCache(
            x,
            self._qp_a_for(x),
            conv.kernel_size,
            conv.stride,
            conv.padding,
            self.low_bits,
            self.compensate_low_bits if compensate is None else compensate,
            dtype=self._packed.dtype,
            a_max=self._packed.a_max,
            geom=self._geom,
        )
        self._geom = cache.geom
        return cache

    def _bias2d(self) -> np.ndarray | None:
        return None if self.conv.bias is None else self.conv.bias.data.reshape(1, -1)

    # -- the two-step inference -----------------------------------------------------

    def predict_partial(self, x: np.ndarray) -> np.ndarray:
        """Sensitivity-prediction step: dequantized HBS*HBS partial output.

        This is the value the predictor PE arrays produce — the dominant
        Eq.-3 term plus the (precomputed, per-channel) zero-point and bias
        constants, so its magnitude is directly comparable to the final
        output feature.
        """
        cache = self._build_cache(x)
        scale = cache.qp_a.scale * self.qp_w.scale
        return cache.to_nchw(
            _partial_2d(cache, self._packed, scale, self._bias2d(), pgemm)
        )

    def full_result(self, x: np.ndarray) -> np.ndarray:
        """Exact INT4 static-quantization output (predictor + all executor terms)."""
        # Standalone callers never read e_low, so skip measuring it.
        cache = self._build_cache(x, compensate=False)
        scale = cache.qp_a.scale * self.qp_w.scale
        acc = _image_gemm(cache, False, self._packed.wmat_full, pgemm)
        return cache.to_nchw(
            _full_2d(cache, acc, self._packed, scale, self._bias2d())
        )

    def run(self, x: np.ndarray) -> np.ndarray:
        if not self.frozen:
            raise RuntimeError(f"executor {self.info.name} not frozen; calibrate first")
        return odq_conv(
            x, self._build_cache, self._packed, self.qp_w.scale, self._bias2d(),
            self.effective_threshold, self.exec_path, self.sparse_crossover,
            ex=self,
        ).out

    # -- introspection ---------------------------------------------------------------

    def sensitivity_mask(self, x: np.ndarray) -> SensitivityMask:
        """Run only the prediction step and return the bit mask."""
        return mask_from_magnitude(self.predict_partial(x), self.effective_threshold)


__all__ = [
    "ODQConvExecutor",
    "ConvResult",
    "odq_conv",
    "odq_mixed_conv",
    "odq_weight_qparams",
    "EXEC_PATHS",
    "SPARSE_ROW_CROSSOVER",
]
