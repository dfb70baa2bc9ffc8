"""Selective encoding of scan slices (reconstruction of the paper's ref [14]).

The decompressor for a core receives ``w``-bit codewords, one per ATE
cycle, and reconstructs ``m``-bit scan slices (``w < m``) that feed the
``m`` wrapper chains.  The code width is fixed by the slice width::

    k = ceil(log2(m + 1))        # payload bits
    w = k + 2                    # plus 2 control bits

Each slice is encoded independently as a sequence of codewords.  Per
slice the encoder:

1. counts the specified 0s and 1s; the *target* symbol is the minority
   care symbol (ties favor 1) and the *fill* symbol is its complement;
   X bits and majority-symbol bits are produced by filling, for free;
2. splits the slice into ``ceil(m / k)`` groups of ``k`` bit positions;
   a group holding three or more target bits is cheaper to transmit
   literally (*group-copy mode*: a GROUP codeword carrying the index of
   the group's first bit, then a data codeword carrying the ``k`` literal
   bits) than bit-by-bit;
3. encodes every remaining target bit in *single-bit mode* (one codeword
   carrying the bit index -- the paper's example: target 1 at index 3 of
   slice ``XXX1000`` is encoded as the index value 3);
4. terminates the slice with an END codeword whose payload carries the
   fill symbol.

Codeword layout (2 control bits + ``k`` payload bits)::

    control 00  SINGLE0  payload = bit index; drive that bit to 0
    control 01  SINGLE1  payload = bit index; drive that bit to 1
    control 10  GROUP    payload = index of the group's first bit;
                         the next codeword's payload holds the k literal
                         data bits (MSB = lowest bit index)
    control 11  END      payload bit0 = fill symbol; ends the slice

The scheme is lossless on care bits: the decoder output is X-compatible
with the source slice (property-tested against
:mod:`repro.compression.decompressor`).  The cost accounting -- one
codeword per single-bit target, two per copied group, one END per slice --
is exactly what :func:`slice_costs` computes in vectorized form, and what
the sampled estimator reuses at industrial scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.compression.cubes import X

CONTROL_SINGLE0 = 0
CONTROL_SINGLE1 = 1
CONTROL_GROUP = 2
CONTROL_END = 3

#: A group is copied literally when it holds at least this many target
#: bits (two codewords beat three or more single-bit codewords).
GROUP_COPY_THRESHOLD = 3


def code_parameters(m: int) -> tuple[int, int]:
    """Payload width ``k`` and codeword width ``w`` for slice width ``m``.

    ``w = ceil(log2(m + 1)) + 2`` as stated in the paper (section 2).
    """
    if m < 1:
        raise ValueError(f"slice width must be >= 1, got {m}")
    k = max(1, math.ceil(math.log2(m + 1)))
    return k, k + 2


def slice_width_range(w: int, max_useful: int | None = None) -> range:
    """Slice widths ``m`` whose code width is exactly ``w``.

    Inverts ``w = ceil(log2(m+1)) + 2``: ``m in [2^(w-3), 2^(w-2) - 1]``
    (``w = 3`` maps to ``m = 1`` only).  ``max_useful`` optionally clips
    the upper end to the core's maximum useful wrapper-chain count.
    """
    if w < 3:
        raise ValueError(f"code width must be >= 3, got {w}")
    low = 1 if w == 3 else 2 ** (w - 3)
    high = 2 ** (w - 2) - 1
    if max_useful is not None:
        high = min(high, max_useful)
    return range(low, high + 1)


@dataclass(frozen=True)
class Codeword:
    """One ``w``-bit codeword: a 2-bit control field plus ``k`` payload bits."""

    control: int
    payload: int

    def __post_init__(self) -> None:
        if not 0 <= self.control <= 3:
            raise ValueError(f"control must be 0..3, got {self.control}")
        if self.payload < 0:
            raise ValueError(f"payload must be >= 0, got {self.payload}")

    def to_bits(self, w: int) -> tuple[int, ...]:
        """Bit tuple (MSB first): 2 control bits then ``w - 2`` payload bits."""
        k = w - 2
        if self.payload >= (1 << k):
            raise ValueError(f"payload {self.payload} does not fit in {k} bits")
        control_bits = ((self.control >> 1) & 1, self.control & 1)
        payload_bits = tuple((self.payload >> (k - 1 - i)) & 1 for i in range(k))
        return control_bits + payload_bits


@dataclass(frozen=True)
class CompressedStream:
    """Encoded form of a sequence of slices, plus bookkeeping."""

    m: int
    codewords: tuple[Codeword, ...]
    slice_count: int

    @property
    def code_width(self) -> int:
        return code_parameters(self.m)[1]

    @property
    def total_bits(self) -> int:
        return len(self.codewords) * self.code_width

    @property
    def cycles(self) -> int:
        """ATE cycles to deliver the stream (one codeword per cycle)."""
        return len(self.codewords)


def _classify_slice(slice_bits: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Return (target symbol, fill symbol, target positions) for a slice."""
    ones = int(np.count_nonzero(slice_bits == 1))
    zeros = int(np.count_nonzero(slice_bits == 0))
    target = 1 if ones <= zeros else 0
    positions = np.flatnonzero(slice_bits == target)
    return target, 1 - target, positions


def encode_slice(slice_bits: Sequence[int] | np.ndarray) -> list[Codeword]:
    """Encode one ``m``-bit slice (values 0/1/X) into codewords."""
    bits = np.asarray(slice_bits, dtype=np.int8)
    if bits.ndim != 1 or bits.size < 1:
        raise ValueError("slice must be a non-empty 1-D array")
    m = int(bits.size)
    k, _ = code_parameters(m)
    target, fill, positions = _classify_slice(bits)
    single_control = CONTROL_SINGLE1 if target == 1 else CONTROL_SINGLE0

    words: list[Codeword] = []
    num_groups = -(-m // k)
    group_of = positions // k
    for g in range(num_groups):
        members = positions[group_of == g]
        if members.size >= GROUP_COPY_THRESHOLD:
            start = g * k
            literal = 0
            for offset in range(k):
                index = start + offset
                if index < m and bits[index] == target:
                    value = target
                else:
                    value = fill
                literal = (literal << 1) | value
            words.append(Codeword(CONTROL_GROUP, start))
            words.append(Codeword(0, literal))
        else:
            for index in members:
                words.append(Codeword(single_control, int(index)))
    words.append(Codeword(CONTROL_END, fill))
    return words


def encode_slices(slices: np.ndarray) -> CompressedStream:
    """Encode a batch of slices (shape ``(S, m)`` or ``(p, si, m)``)."""
    arr = np.asarray(slices, dtype=np.int8)
    if arr.ndim == 3:
        arr = arr.reshape(-1, arr.shape[-1])
    if arr.ndim != 2:
        raise ValueError("slices must be 2-D (S, m) or 3-D (p, si, m)")
    words: list[Codeword] = []
    for row in arr:
        words.extend(encode_slice(row))
    return CompressedStream(
        m=int(arr.shape[1]), codewords=tuple(words), slice_count=int(arr.shape[0])
    )


def slice_costs(slices: np.ndarray) -> np.ndarray:
    """Codeword count of every slice, vectorized (no codeword objects).

    Must agree exactly with the codeword count of :func:`encode_slice`
    for every row (the differential suite holds it to a reference that
    encodes every slice); this kernel is what the design-space
    exploration and the sampled estimator are built on.
    """
    arr = np.asarray(slices, dtype=np.int8)
    if arr.ndim == 3:
        arr = arr.reshape(-1, arr.shape[-1])
    if arr.ndim != 2:
        raise ValueError("slices must be 2-D (S, m) or 3-D (p, si, m)")
    S, m = arr.shape
    k, _ = code_parameters(m)
    num_groups = -(-m // k)
    if num_groups * k != m:
        # Pad with X so m divides into whole groups; X counts as neither
        # symbol, exactly like unspecified cube bits.
        padded = np.full((S, num_groups * k), X, dtype=np.int8)
        padded[:, :m] = arr
    else:
        padded = arr
    groups = padded.reshape(S, num_groups, k)
    # Per-group symbol counts; a group holds at most k bits, so int16 is
    # ample and keeps the temporaries small.
    ones_group = (groups == 1).sum(axis=2, dtype=np.int16)
    zeros_group = (groups == 0).sum(axis=2, dtype=np.int16)
    ones = ones_group.sum(axis=1, dtype=np.int64)
    zeros = zeros_group.sum(axis=1, dtype=np.int64)
    target_is_one = ones <= zeros  # ties favor encoding the 1s
    target_group = np.where(target_is_one[:, None], ones_group, zeros_group)
    # min(count, 2) is the group cost: below GROUP_COPY_THRESHOLD (= 3)
    # every target bit costs one single-bit codeword, at or above it the
    # group is emitted as a 2-codeword group-copy.
    group_cost = np.minimum(target_group, 2)
    return 1 + group_cost.sum(axis=1, dtype=np.int64)


def encoded_bits(slices: np.ndarray) -> int:
    """Total compressed bits for a batch of slices (``w`` per codeword)."""
    arr = np.asarray(slices, dtype=np.int8)
    m = int(arr.shape[-1])
    _, w = code_parameters(m)
    return int(slice_costs(arr).sum()) * w


def stream_to_bit_matrix(stream: CompressedStream) -> np.ndarray:
    """Render a stream as a ``(cycles, w)`` 0/1 matrix (the ATE image)."""
    w = stream.code_width
    out = np.zeros((len(stream.codewords), w), dtype=np.int8)
    for row, word in enumerate(stream.codewords):
        out[row] = word.to_bits(w)
    return out


def codewords_from_bit_matrix(matrix: np.ndarray) -> list[Codeword]:
    """Parse a ``(cycles, w)`` 0/1 matrix back into codewords."""
    arr = np.asarray(matrix, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] < 3:
        raise ValueError("bit matrix must be 2-D with width >= 3")
    k = arr.shape[1] - 2
    weights = 1 << np.arange(k - 1, -1, -1)
    controls = arr[:, 0] * 2 + arr[:, 1]
    payloads = arr[:, 2:] @ weights
    return [Codeword(int(c), int(p)) for c, p in zip(controls, payloads)]


def compression_ratio(raw_bits: int, compressed_bits: int) -> float:
    """Volume reduction factor ``raw / compressed`` (inf when free)."""
    if compressed_bits <= 0:
        return math.inf
    return raw_bits / compressed_bits


def iter_slice_streams(
    slices: Iterable[np.ndarray],
) -> Iterable[list[Codeword]]:
    """Lazily encode an iterable of slices (memory-bounded pipelines)."""
    for row in slices:
        yield encode_slice(row)
