"""Sensitivity masks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.masks import SensitivityMask, mask_from_magnitude


class TestSensitivityMask:
    def test_counts(self):
        m = SensitivityMask(np.array([[[[True, False], [True, True]]]]), 0.1)
        assert m.total == 4
        assert m.sensitive_count == 3
        assert m.sensitive_fraction == 0.75
        assert m.insensitive_fraction == 0.25

    def test_per_channel_counts(self):
        mask = np.zeros((2, 3, 2, 2), dtype=bool)
        mask[:, 1] = True  # channel 1 fully sensitive in both images
        m = SensitivityMask(mask, 0.0)
        np.testing.assert_array_equal(m.per_channel_counts(), [0, 8, 0])

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError):
            SensitivityMask(np.zeros((2, 2)), 0.0)


class TestMaskFromMagnitude:
    def test_threshold_semantics_strict(self):
        vals = np.array([[[[-2.0, -0.5], [0.5, 2.0]]]])
        m = mask_from_magnitude(vals, 0.5)
        # Strictly greater: |±0.5| is NOT sensitive.
        np.testing.assert_array_equal(
            m.mask, [[[[True, False], [False, True]]]]
        )

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            mask_from_magnitude(np.zeros((1, 1, 1, 1)), -1.0)

    def test_zero_threshold_marks_all_nonzero(self):
        vals = np.array([[[[0.0, 1e-9], [-1e-9, 0.0]]]])
        m = mask_from_magnitude(vals, 0.0)
        assert m.sensitive_count == 2

    @given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0))
    def test_monotone_in_threshold(self, t1, t2):
        """Property: raising the threshold never adds sensitive outputs."""
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(2, 3, 4, 4)) * 2
        lo, hi = sorted((t1, t2))
        assert (
            mask_from_magnitude(vals, hi).sensitive_count
            <= mask_from_magnitude(vals, lo).sensitive_count
        )

    def test_infinite_threshold_all_insensitive(self):
        vals = np.random.default_rng(0).normal(size=(1, 2, 3, 3)) * 100
        m = mask_from_magnitude(vals, np.inf)
        assert m.sensitive_count == 0


@st.composite
def _masks(draw):
    """Random boolean masks, NCHW-contiguous or an NCHW view of NHWC
    memory (the layout ``odq_conv``'s masks have)."""
    n, c, h, w = (draw(st.integers(1, 4)) for _ in range(4))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        return rng.random((n, c, h, w)) < density
    return (rng.random((n, h, w, c)) < density).transpose(0, 3, 1, 2)


class TestCachedCounts:
    @given(_masks())
    def test_counts_match_the_mask(self, mask):
        m = SensitivityMask(mask, 0.0)
        assert m.sensitive_count == np.count_nonzero(mask)
        np.testing.assert_array_equal(m.per_channel_counts(), mask.sum((0, 2, 3)))
        assert m.per_channel_counts().dtype == np.int64

    @given(_masks())
    def test_row_gather_matches_nchw_index(self, mask):
        """The channel-major copy's columns at the sensitive positions
        are the NCHW mask's rows there."""
        m = SensitivityMask(mask, 0.0)
        n, _, h, w = mask.shape
        sel = np.flatnonzero(m.by_channel.any(axis=0))
        ni, rem = np.divmod(sel, h * w)
        oi, oj = np.divmod(rem, w)
        np.testing.assert_array_equal(m.by_channel[:, sel].T, mask[ni, :, oi, oj])
        assert sel.size == np.count_nonzero(mask.any(axis=1))

    def test_counts_are_shared_read_only(self):
        m = SensitivityMask(np.ones((1, 2, 2, 2), dtype=bool), 0.0)
        counts = m.per_channel_counts()
        assert counts is m.per_channel_counts()
        with pytest.raises(ValueError):
            counts[0] = 0
