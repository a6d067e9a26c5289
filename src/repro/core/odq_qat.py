"""ODQ-aware fine-tuning (the paper's threshold-in-the-loop retraining).

Section 3: "Weights are retrained after introducing the threshold to the
model to capture sensitivity information in the input feature maps."
Post-training ODQ alone degrades accuracy badly — insensitive outputs are
frozen at the predictor's coarse 2-bit partial, a forward semantics the
network never saw during training.  Retraining *with the ODQ forward
pass* lets the network adapt: weights move so that genuinely important
outputs clear the threshold and the rest tolerate the partial value.

:class:`ODQAwareConv2d` runs the exact inference-time mixed computation
(via :func:`repro.core.odq.odq_mixed_conv`) in its forward pass and a
straight-through estimator in its backward pass (gradients as if the
layer were an ordinary convolution with the dequantized INT4 weights —
the standard fake-quant STE, extended to ignore the mask discontinuity).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.config import ODQ_LOW_BITS, ODQ_TOTAL_BITS
from repro.core.colcache import weights_from_gemm_layout
from repro.core.gemm import pgemm
from repro.core.odq import odq_mixed_conv, odq_weight_qparams
from repro.nn.layers import Conv2d, Module, swap_modules
from repro.nn.loss import cross_entropy
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor
from repro.nn.trainer import Trainer, TrainHistory
from repro.quant.uniform import affine_qparams, dequantize, quantize
from repro.utils.im2col import col2im


class ODQAwareConv2d(Conv2d):
    """Conv2d whose forward pass is the ODQ two-step mixed computation.

    Activation ranges are taken per batch (min/max), mirroring how BN
    statistics behave in training mode; the final calibration at
    deployment replays the same computation with frozen observers.
    """

    def __init__(
        self,
        *args: Any,
        threshold: float,
        total_bits: int = ODQ_TOTAL_BITS,
        low_bits: int = ODQ_LOW_BITS,
        weight_percentile: float = 97.0,
        threshold_mode: str = "absolute",
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.threshold = threshold
        self.total_bits = total_bits
        self.low_bits = low_bits
        self.weight_percentile = weight_percentile
        self.threshold_mode = threshold_mode
        #: EMA of the layer's full-result std (drives scaled thresholds;
        #: frozen outside training mode so eval is deterministic).
        self.output_std_ema: float | None = None
        #: Sensitive fraction of the latest forward batch (diagnostics).
        self.last_sensitive_fraction = 0.0

    @classmethod
    def from_conv(cls, conv: Conv2d, threshold: float, **kwargs: Any) -> "ODQAwareConv2d":
        layer = cls(
            conv.in_channels,
            conv.out_channels,
            conv.kernel_size,
            conv.stride,
            conv.padding,
            bias=conv.bias is not None,
            threshold=threshold,
            **kwargs,
        )
        layer.weight = conv.weight
        layer.bias = conv.bias
        return layer

    def to_conv(self) -> Conv2d:
        """Return a plain Conv2d sharing this layer's parameters."""
        conv = Conv2d(
            self.in_channels,
            self.out_channels,
            self.kernel_size,
            self.stride,
            self.padding,
            bias=self.bias is not None,
        )
        conv.weight = self.weight
        conv.bias = self.bias
        return conv

    def forward(self, x: Tensor) -> Tensor:
        x_data = x.data
        qp_a = affine_qparams(float(x_data.min()), float(x_data.max()), self.total_bits)
        qp_w = odq_weight_qparams(self.weight.data, self.total_bits, self.weight_percentile)

        if self.threshold_mode == "scaled":
            sigma = self.output_std_ema if self.output_std_ema else 1.0
            threshold = self.threshold * sigma
        else:
            threshold = self.threshold
        result = odq_mixed_conv(
            x_data,
            self.weight.data,
            None if self.bias is None else self.bias.data,
            self.stride,
            self.padding,
            threshold,
            qp_a,
            qp_w,
            self.low_bits,
            with_cache=True,
        )
        out_data = result["out"]
        if self.threshold_mode == "scaled" and self.training:
            batch_std = float(result["full"].std())  # repro: noqa[NUM401] — dense conv output; nonempty whenever forward ran
            if self.output_std_ema is None:
                self.output_std_ema = batch_std
            else:
                self.output_std_ema = 0.9 * self.output_std_ema + 0.1 * batch_std
        self.last_sensitive_fraction = result["mask"].sensitive_fraction

        # STE backward: gradients of an ordinary conv over the
        # *dequantized* operands (fake-quant straight-through).  The
        # forward pass's column cache already holds the quantized input
        # columns (zero-point padded — which dequantizes to the real-0
        # padding an ordinary conv uses), so the dequantized column
        # matrix is one affine transform instead of a second im2col.
        # The cache may hold narrow (float32) exact integers; the STE
        # gradients are float64, so widen before dequantizing.
        w_deq = dequantize(quantize(self.weight.data, qp_w), qp_w)
        k, s, p = self.kernel_size, self.stride, self.padding
        cache = result["cache"]
        cols = np.subtract(cache.cols, qp_a.zero_point, dtype=np.float64)
        cols *= qp_a.scale
        c_out = self.out_channels
        wmat = w_deq.reshape(c_out, -1).T

        weight_t, bias_t, x_t = self.weight, self.bias, x

        def backward(g: np.ndarray) -> None:
            gmat = np.asarray(g).transpose(0, 2, 3, 1).reshape(-1, c_out)
            if weight_t.requires_grad:
                dw = pgemm(cols.T, gmat)  # rows in the cache's column order
                weight_t._accumulate(weights_from_gemm_layout(dw, weight_t.shape))
            if bias_t is not None and bias_t.requires_grad:
                bias_t._accumulate(gmat.sum(axis=0))
            if x_t.requires_grad:
                x_t._accumulate(col2im(pgemm(gmat, wmat.T), x_t.shape, k, s, p))

        parents = (x, self.weight) if self.bias is None else (x, self.weight, self.bias)
        return Tensor.from_op(out_data, parents, backward, "odq_conv")


def convert_to_odq_qat(
    model: Module,
    threshold: float,
    total_bits: int = ODQ_TOTAL_BITS,
    low_bits: int = ODQ_LOW_BITS,
    weight_percentile: float = 97.0,
    threshold_mode: str = "absolute",
) -> Module:
    """Swap every Conv2d for an :class:`ODQAwareConv2d` (in place)."""

    def transform(m: Module) -> Module:
        if isinstance(m, Conv2d) and not isinstance(m, ODQAwareConv2d):
            return ODQAwareConv2d.from_conv(
                m,
                threshold,
                total_bits=total_bits,
                low_bits=low_bits,
                weight_percentile=weight_percentile,
                threshold_mode=threshold_mode,
            )
        return m

    return swap_modules(model, transform)


def convert_from_odq_qat(model: Module) -> Module:
    """Undo :func:`convert_to_odq_qat`, keeping the fine-tuned weights."""

    def transform(m: Module) -> Module:
        if isinstance(m, ODQAwareConv2d):
            return m.to_conv()
        return m

    return swap_modules(model, transform)


def finetune_odq(
    model: Module,
    threshold: float,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray | None = None,
    y_test: np.ndarray | None = None,
    epochs: int = 2,
    lr: float = 0.01,
    batch_size: int = 32,
    weight_percentile: float = 97.0,
    rng: np.random.Generator | None = None,
    keep_best: bool = True,
    threshold_mode: str = "absolute",
) -> TrainHistory:
    """Fine-tune ``model`` under ODQ forward semantics, then restore it.

    This is the reproduction of the paper's retraining step; the returned
    model has ordinary ``Conv2d`` layers with ODQ-adapted weights, ready
    for the quantized inference engine.

    ``keep_best`` (with a test split provided) restores the epoch with
    the highest ODQ-forward test accuracy — low-bit STE training is
    noisy, and the paper's accept/reject loop implies keeping a
    satisfactory checkpoint rather than blindly the last one.
    """
    convert_to_odq_qat(
        model, threshold,
        weight_percentile=weight_percentile,
        threshold_mode=threshold_mode,
    )
    try:
        # Seed each layer's output-std EMA with one training-mode forward so
        # scaled thresholds are meaningful from the first gradient step.
        model.train()
        model(Tensor(x_train[: min(len(x_train), batch_size)]))
        trainer = Trainer(
            model,
            SGD(model.parameters(), lr=lr, momentum=0.9),
            loss_fn=cross_entropy,
            batch_size=batch_size,
            rng=rng if rng is not None else np.random.default_rng(0),
            grad_clip=5.0,
        )
        if keep_best and x_test is not None and y_test is not None:
            history = TrainHistory()
            best_acc, best_state = -1.0, None
            for _ in range(epochs):
                h = trainer.fit(x_train, y_train, x_test, y_test, epochs=1)
                history.train_loss += h.train_loss
                history.train_acc += h.train_acc
                history.test_acc += h.test_acc
                if h.test_acc[-1] > best_acc:
                    best_acc = h.test_acc[-1]
                    best_state = model.state_dict()
            if best_state is not None:
                model.load_state_dict(best_state)
        else:
            history = trainer.fit(x_train, y_train, x_test, y_test, epochs=epochs)
    finally:
        convert_from_odq_qat(model)
    return history


__all__ = [
    "ODQAwareConv2d",
    "convert_to_odq_qat",
    "convert_from_odq_qat",
    "finetune_odq",
]
