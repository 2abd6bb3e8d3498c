"""Many residues mod p in one Python int, one fixed-width field each.

A vector of residues becomes the int sum of v_i 2^(w i), w = 8 size, so a
sum of scaled vectors, or the product of two packed polynomials (Kronecker
substitution), is a few big-int operations in C instead of a Python loop
over entries, as in Dumas, Fousse and Salvy (J. Symb. Comput. 46(7), 2011).
Three callers share it: the F_p matrix kernels of _kernels (rows of a
matrix, for the product, row reduction and the rank sequence), the
finite-field arithmetic of cyclic_algebra (polynomials mod an irreducible)
and the orbit norms of ufd_norm (multivariate polynomials).
"""

import struct


def layout(terms, p, count=None):
    """(size, s, m, qmask): how to pack `count` (default `terms`) residues
    mod p so that a field holding a sum of up to `terms` products of two
    residues reduces exactly.

    Every such sum, plus a residue, is below 2^h, h being the bit length of
    terms (p - 1)^2 + p. With s = h + bitlen(p - 1) and m = ceil(2^s / p),
    floor(x m / 2^s) = floor(x / p) for every x < 2^h (Granlund and
    Montgomery, PLDI 1994). A field of h + bitlen(m) bits holds x m, so no
    field carries into the next; it is rounded up to `size` whole bytes so
    that vectors convert to and from bytes. qmask has the low 8 size - s
    bits of every field set: after the shift by s, those hold the field's
    own quotient.
    """
    if count is None:
        count = terms
    h = (terms * (p - 1) ** 2 + p).bit_length()
    s = h + (p - 1).bit_length()
    m = -(-(1 << s) // p)
    size = -(-(h + m.bit_length()) // 8)
    ones = int.from_bytes(b"\x01".ljust(size, b"\x00") * count, "little")
    return size, s, m, ((1 << (8 * size - s)) - 1) * ones


def reduce(x, p, m, s, qmask):
    """x with every field, each below 2^h, reduced mod p at once."""
    return x - p * (((x * m) >> s) & qmask)


def to_fields(values, p, size):
    """Little-endian bytes with one `size`-byte field per residue mod p."""
    if p > 256:
        return b"".join(x.to_bytes(size, "little") for x in values)
    raw = bytes(values)
    if size == 1:
        return raw
    spread = bytearray(len(raw) * size)
    spread[::size] = raw
    return spread


def from_fields(raw, p, size):
    """Inverse of to_fields: the values of the fields of raw, each below p."""
    if p <= 256:
        return raw[::size]
    if p <= 1 << 64:
        # every value fits the low 8 bytes of its field: copy those bytes to
        # an 8-byte slot per value and unpack all the slots in one call
        count = len(raw) // size
        wide = bytearray(8 * count)
        for k in range(min(size, 8)):
            wide[k::8] = raw[k::size]
        return struct.unpack(f"<{count}Q", wide)
    return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
