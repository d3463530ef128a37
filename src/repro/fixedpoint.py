"""16-bit dynamic fixed-point arithmetic.

Every benchmark in the paper uses "16 bit dynamic fixed point arithmetic"
(Section IV).  Dynamic fixed point keeps values as plain integers and tracks
a per-tensor binary scale (the number of fractional bits) in software; the
hardware only ever sees integers.  This module provides:

* :class:`FixedPointFormat` — a (total bits, fractional bits) pair with
  range queries;
* :func:`to_fixed` / :func:`from_fixed` — saturating float<->int conversion
  for numpy arrays or scalars;
* saturating integer helpers (:func:`saturate`, :func:`sat_add`,
  :func:`sat_mul`) shared by the PE functional model and the workload
  references.

All integer math here is done in numpy ``int64`` so intermediate products of
16-bit operands never overflow before saturation.

Every helper is shape-agnostic: saturation and the fractional shift are
elementwise, so an operand may be a scalar, a vector, a matrix, or a
stacked ``(N, ...)`` block of independent operands.  The PE's vector
unit (:mod:`repro.pe.vector_unit`) relies on this to run a whole ``m.v``
matrix, broadcast against its vector, through one ufunc call — the
per-element results are bit-identical to per-row calls by construction,
because no helper's behavior depends on array rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: numpy dtypes by element width in bits.
DTYPES = {8: np.int8, 16: np.int16, 32: np.int32, 64: np.int64}

#: Per-width (min, max) bounds, precomputed once — the saturating helpers
#: run per simulated vector instruction, so per-call bound arithmetic and
#: dtype-object churn are measurable.
_INT_BOUNDS = {
    bits: (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) for bits in DTYPES
}
#: The same bounds as ready-made ``int64`` scalars: passing numpy scalars to
#: ``np.clip`` avoids the per-call int->dtype promotion (``iinfo``) lookups.
_CLIP_BOUNDS = {
    bits: (np.int64(lo), np.int64(hi)) for bits, (lo, hi) in _INT_BOUNDS.items()
}


def int_bounds(bits: int) -> tuple[int, int]:
    """Return the (min, max) representable values of a signed ``bits``-wide
    integer."""
    bounds = _INT_BOUNDS.get(bits)
    if bounds is None:
        raise ValueError(f"unsupported element width: {bits}")
    return bounds


@dataclass(frozen=True)
class FixedPointFormat:
    """A dynamic fixed-point format: ``bits`` total, ``frac`` fractional.

    The represented real value of integer ``q`` is ``q / 2**frac``.

    >>> fmt = FixedPointFormat(16, 8)
    >>> fmt.resolution
    0.00390625
    """

    bits: int = 16
    frac: int = 8

    def __post_init__(self):
        if self.bits not in DTYPES:
            raise ValueError(f"unsupported width: {self.bits}")
        if not 0 <= self.frac < self.bits:
            raise ValueError(f"fractional bits out of range: {self.frac}")

    @property
    def resolution(self) -> float:
        """Smallest representable increment."""
        return 2.0 ** -self.frac

    @property
    def min_value(self) -> float:
        return int_bounds(self.bits)[0] * self.resolution

    @property
    def max_value(self) -> float:
        return int_bounds(self.bits)[1] * self.resolution

    def with_frac(self, frac: int) -> "FixedPointFormat":
        """Return a copy with a different number of fractional bits."""
        return FixedPointFormat(self.bits, frac)


def _bounds_or_raise(bits: int) -> tuple:
    bounds = _CLIP_BOUNDS.get(bits)
    if bounds is None:
        raise ValueError(f"unsupported element width: {bits}")
    return bounds


def _clamp_inplace(arr: np.ndarray, lo, hi) -> np.ndarray:
    # Two in-place ufunc calls beat np.clip's wrapper chain (and its
    # output allocation) by ~4x on the short vectors the PE issues.
    np.maximum(arr, lo, out=arr)
    np.minimum(arr, hi, out=arr)
    return arr


def saturate(values, bits: int):
    """Clamp integer ``values`` to the signed range of ``bits``.

    Accepts scalars or numpy arrays; always returns ``int64`` typed data so
    callers can keep accumulating without overflow.  The input is never
    mutated; the result is always freshly owned by the caller.
    """
    lo, hi = _bounds_or_raise(bits)
    arr = np.asarray(values, dtype=np.int64)
    if arr is values:  # no-copy aliasing of the caller's own array
        arr = arr.copy()
    if arr.ndim == 0:
        return np.clip(arr, lo, hi)
    return _clamp_inplace(arr, lo, hi)


def sat_reduce_add(rows: np.ndarray, bits: int) -> np.ndarray:
    """Row-wise 64-bit accumulate then saturate (the horizontal adder).

    The sum is a freshly allocated array this function owns, so the clamp
    runs in place — same results as ``saturate(rows.sum(...), bits)``
    without its defensive copy.
    """
    lo, hi = _bounds_or_raise(bits)
    return _clamp_inplace(rows.sum(axis=1, dtype=np.int64), lo, hi)


def saturate_cast(values, bits: int):
    """Clamp ``values`` to the signed range of ``bits`` and cast to that
    width's dtype, *consuming* the input: an int64 array's buffer is
    clamped in place, so callers must pass data they own and no longer
    need (the PE writeback path hands over freshly computed results).
    """
    lo, hi = _bounds_or_raise(bits)
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim == 0:
        return np.clip(arr, lo, hi).astype(DTYPES[bits])
    _clamp_inplace(arr, lo, hi)
    return arr.astype(DTYPES[bits])


def to_fixed(values, fmt: FixedPointFormat = FixedPointFormat()):
    """Quantize real ``values`` into integers of format ``fmt`` (saturating,
    round-to-nearest)."""
    scaled = np.round(np.asarray(values, dtype=np.float64) * (1 << fmt.frac))
    return saturate(scaled, fmt.bits).astype(DTYPES[fmt.bits])


def from_fixed(values, fmt: FixedPointFormat = FixedPointFormat()):
    """Convert fixed-point integers back to floats."""
    return np.asarray(values, dtype=np.float64) / (1 << fmt.frac)


def _sat_binop(ufunc, a, b, bits: int):
    """``saturate(ufunc(a, b), bits)`` clamping the fresh result in place."""
    lo, hi = _bounds_or_raise(bits)
    out = ufunc(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    if not isinstance(out, np.ndarray):  # scalar operands
        return np.clip(out, lo, hi)
    return _clamp_inplace(out, lo, hi)


def sat_add(a, b, bits: int = 16):
    """Saturating elementwise addition at ``bits`` width."""
    return _sat_binop(np.add, a, b, bits)


def sat_sub(a, b, bits: int = 16):
    """Saturating elementwise subtraction at ``bits`` width."""
    return _sat_binop(np.subtract, a, b, bits)


def sat_mul(a, b, bits: int = 16, frac_shift: int = 0):
    """Saturating fixed-point multiply.

    Computes the full product in 64 bits, applies the dynamic fixed-point
    fractional shift (arithmetic right shift by ``frac_shift``), and
    saturates to ``bits``.  This mirrors the VIP vertical-unit multiplier,
    whose fractional shift is set per kernel (see ``set.fx``).
    """
    lo, hi = _bounds_or_raise(bits)
    product = np.multiply(np.asarray(a, dtype=np.int64),
                          np.asarray(b, dtype=np.int64))
    if not isinstance(product, np.ndarray):  # scalar operands
        if frac_shift:
            product = product >> frac_shift
        return np.clip(product, lo, hi)
    if frac_shift:
        np.right_shift(product, frac_shift, out=product)
    return _clamp_inplace(product, lo, hi)


def choose_frac_bits(values, bits: int = 16, headroom: int = 1) -> int:
    """Pick the largest fractional-bit count that represents ``values``
    without saturation, leaving ``headroom`` integer bits spare.

    This is the "dynamic" part of dynamic fixed point: each tensor gets its
    own scale.  Returns 0 when the data cannot fit even with no fractional
    bits (callers should then rescale the data).
    """
    peak = float(np.max(np.abs(values))) if np.size(values) else 0.0
    if peak == 0.0:
        return bits - 1 - headroom
    int_bits = max(0, int(np.ceil(np.log2(peak + 1e-12))) + 1)  # sign bit
    frac = bits - int_bits - headroom
    return max(0, min(bits - 1, frac))
