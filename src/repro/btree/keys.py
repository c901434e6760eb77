"""Order-preserving key encodings.

The FIX B-tree key is the tuple ``(root label, λ_max, λ_min)``
(Section 3.4; λ_max is the primary sort component after the label, which
is also what the paper recommends building the optimizer histogram on).
Keys are stored as bytes; the encodings here guarantee that byte-wise
(memcmp) order equals the intended tuple order, so the tree never needs
to decode keys to compare them.

* Labels: UTF-8 bytes, terminated by ``0x00``.  The terminator sorts
  below every continuation byte, so a label is never "between" the keys
  of one of its extensions (``ab`` vs ``abc``).
* Floats: the classic sign-flip trick — for non-negatives set the sign
  bit, for negatives invert all 64 bits.  Total order over ``-inf`` …
  ``+inf`` is preserved, which the all-covering fallback range relies on.
"""

from __future__ import annotations

import struct

from repro.errors import BTreeError

_SIGN_BIT = 1 << 63
_MASK64 = (1 << 64) - 1


def encode_float(value: float) -> bytes:
    """8-byte encoding of a float whose byte order matches numeric order."""
    (bits,) = struct.unpack(">Q", struct.pack(">d", value))
    if bits & _SIGN_BIT:
        bits = ~bits & _MASK64
    else:
        bits |= _SIGN_BIT
    return struct.pack(">Q", bits)


def decode_float(data: bytes) -> float:
    """Inverse of :func:`encode_float`."""
    (bits,) = struct.unpack(">Q", data)
    if bits & _SIGN_BIT:
        bits &= ~_SIGN_BIT & _MASK64
    else:
        bits = ~bits & _MASK64
    (value,) = struct.unpack(">d", struct.pack(">Q", bits))
    return value


def encode_label(label: str) -> bytes:
    """NUL-terminated label bytes.

    Raises:
        BTreeError: if the label contains a NUL (cannot be terminated).
    """
    raw = label.encode("utf-8")
    if b"\x00" in raw:
        raise BTreeError(f"label {label!r} contains NUL and cannot be encoded")
    return raw + b"\x00"


def encode_feature_key(label: str, lmax: float, lmin: float) -> bytes:
    """Composite key ``label || λ_max || λ_min``, order-preserving."""
    return encode_label(label) + encode_float(lmax) + encode_float(lmin)


def label_terminator(data: bytes) -> int:
    """Offset of a composite key's label terminator — the key-format
    check: one NUL, sixteen float bytes after it.  Everything past the
    terminator is fixed-width, so ``data[-16:-8]`` / ``data[-8:]`` of a
    key that passes are the encoded λ_max / λ_min, and byte-wise
    comparison of those slices is numeric comparison.

    Raises:
        BTreeError: ``data`` is not an encoded feature key.
    """
    terminator = data.find(b"\x00")
    if terminator < 0 or len(data) != terminator + 17:
        raise BTreeError(f"malformed feature key of {len(data)} bytes")
    return terminator


def decode_feature_key(data: bytes) -> tuple[str, float, float]:
    """Inverse of :func:`encode_feature_key`."""
    terminator = label_terminator(data)
    label = data[:terminator].decode("utf-8")
    lmax = decode_float(data[terminator + 1 : terminator + 9])
    lmin = decode_float(data[terminator + 9 : terminator + 17])
    return label, lmax, lmin


def label_upper_bound(label: str) -> bytes:
    """Exclusive upper bound for all keys carrying ``label``.

    ``0x01`` sorts above the ``0x00`` terminator and below the first byte
    of any non-empty label continuation, so this bound splits exactly
    after the last key of ``label``.
    """
    return label.encode("utf-8") + b"\x01"
