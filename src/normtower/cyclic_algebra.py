"""Cyclic crossed-product algebras over finite fields.

The algebra (L/E, tau, b) is the direct sum of u^j L for 0 <= j < r with
u^(-1) d u = tau(d) and u^r = b, so
(u^i c)(u^j d) = u^(i+j) tau^j(c) d, with u^(i+j) reduced by u^r = b.
Over finite fields the norm is surjective, so every such algebra splits;
the splitting is certified by an explicit zero divisor built from a norm
preimage of b. The degree/index bookkeeping of the centralizer ladder is
exposed as exact integer identities.

A field element of L = F_(l^k) is the packed int of _Quotient, one field
per coefficient, and an algebra element is one int in the same packing:
slot i, which starts at field i (2k - 1), holds the k fields of the
coefficient of u^i, with room for a product before it is folded. ca_mul
works on all r slots at once, and a field of its sum holds at most r k <= k^2
products (k = d r), the bound the field's own layout already allows. The
base-l encoding a user reads and writes is formed only at the edges:
FiniteFieldTower, algebra_element and AlgebraElement.coeffs.
"""

from dataclasses import dataclass
from operator import mul, sub

from . import _kernels, packing
from .errors import InternalCheckError, SearchSpaceTooLarge
from .numtheory import MAX_N, is_prime, shown, whole

# ---------------------------------------------------------------------------
# finite fields F_{l^k}, elements packed one field per coefficient
# ---------------------------------------------------------------------------


class _Quotient:
    """F_l[x]/(f) for a monic f = (f_0, ..., f_(k-1), 1) of degree k >= 1.

    Every operation takes and returns sum c_i x^i packed as sum c_i 2^(w i),
    one packing field per coefficient, each below l; encode and decode
    convert from and to the encoding sum c_i l^i. A product is one big-int
    multiply (Kronecker substitution) whose field t holds
    sum_(i+j=t) a_i b_j, at most k products. layout allows k^2 products per
    field, so that a sum of up to k products is reduced once (Dumas, Fousse
    and Salvy): one reduce brings all 2k - 1 fields below l. The top k - 1
    fields c_(k+t) fold in as c_(k+t) (x^(k+t) mod f), k - 1 more products
    per field, and a second reduce.
    """

    def __init__(self, l, modulus):
        k = len(modulus) - 1
        self.l = l
        self.k = k
        self.modulus = tuple(modulus)
        self._size, self._s, self._m, self._qmask = packing.layout(k * k, l, 2 * k - 1)
        self._top = 8 * self._size * k
        self._low = (1 << self._top) - 1
        self._lpows = [l**i for i in range(k)]
        self._shifts = [8 * self._size * i for i in range(k)]
        # x^(k+t) mod f for t < k - 1, from x^k = -(f_0 + ... + f_(k-1) x^(k-1))
        folds, power = [], [-c % l for c in modulus[:k]]
        for _ in range(k - 1):
            folds.append(sum(c << shift for c, shift in zip(power, self._shifts)))
            top = power[-1]
            power = [(low - top * c) % l for low, c in zip([0] + power[:-1], modulus)]
        self._folds = folds

    def _fields(self, v):
        """The k digits of a packed element whose k fields are below l."""
        return packing.from_fields(v.to_bytes(self._top // 8, "little"), self.l, self._size)

    def _reduce(self, v):
        return packing.reduce(v, self.l, self._m, self._s, self._qmask)

    def encode(self, e):
        """The packed element of the encoding e, any int read mod l^k."""
        l, v = self.l, 0
        for shift in self._shifts:
            e, c = divmod(e, l)
            v |= c << shift
        return v

    def decode(self, v):
        """The encoding in [0, l^k) of a packed element."""
        return sum(map(mul, self._fields(v), self._lpows))

    def mul(self, u, v):
        v = self._reduce(u * v)
        high = v >> self._top
        if high:
            v = self._reduce((v & self._low) + sum(map(mul, self._fields(high), self._folds)))
        return v

    def add(self, *terms):
        """The sum of at most k^2 + 1 packed elements: its fields are at most
        (k^2 + 1)(l - 1), within the bound of layout, so one reduce suffices."""
        return self._reduce(sum(terms))

    def pow(self, a, e):
        """a^e for e >= 0, by squaring."""
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return result


def _is_irreducible(f, l):
    # f monic little-endian of degree k. x^(l^k) = x mod f makes f
    # squarefree, and then f has k - rank(Q - I) irreducible factors, row i
    # of Q being x^(l i) mod f (Berlekamp, Bell Syst. Tech. J. 46, 1967).
    k = len(f) - 1
    if k == 1:
        return True
    ring = _Quotient(l, f)
    x = ring.encode(l)
    if ring.pow(x, l**k) != x:
        return False
    xl, power, rows = ring.pow(x, l), 1, []
    for i in range(k):
        digits = list(ring._fields(power))
        digits[i] = (digits[i] - 1) % l
        rows += digits
        power = ring.mul(power, xl)
    return _kernels.rank(rows, k, k, l) == k - 1


def find_irreducible(l, k):
    """Lexicographically least monic irreducible of degree k over F_l,
    scanning low-coefficient encodings upward."""
    for enc in range(l**k):
        f = [(enc // l**i) % l for i in range(k)] + [1]
        if _is_irreducible(f, l):
            return tuple(f)
    raise InternalCheckError(f"no irreducible of degree {k} over F_{l}")


MAX_FIELD_ORDER = 10**5  # largest l^k built: the modulus and norm searches scan F_{l^k}


class FiniteField(_Quotient):
    """F_{l^k} as F_l[x]/(f), on the packed elements of _Quotient."""

    def __init__(self, l, k):
        if not is_prime(whole(l, "l")):
            raise ValueError(f"{shown(l)} is not prime")
        whole(k, "degree", floor=1)
        # before the modulus search; l^k >= 2^(k (bitlen(l) - 1)) and 2^17 >
        # MAX_FIELD_ORDER, so a huge k is refused without forming l^k
        if k * (l.bit_length() - 1) > 16 or l**k > MAX_FIELD_ORDER:
            raise SearchSpaceTooLarge(f"|L| = {l}^{shown(k)} > {MAX_FIELD_ORDER}")
        super().__init__(l, find_irreducible(l, k) if k > 1 else (0, 1))
        self.order = l**k
        # t in 0..k-1 -> packed images of 1, x, ..., x^(k-1) under Frobenius^t
        self._frobenius = {0: [1 << shift for shift in self._shifts]}

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self.pow(a, self.order - 2)

    def frobenius(self, a, times):
        """a^(l^times); F_l is fixed. The map is F_l-linear of order k, so
        with t = times mod k it sends sum c_i x^i to sum c_i (x^i)^(l^t): k
        multiply-adds on the packed images of the power basis."""
        return self._reduce(sum(map(mul, self._fields(a), self._images(times % self.k))))

    def _images(self, t):
        """The packed images of 1, x, ..., x^(k-1) under Frobenius^t, built once."""
        images = self._frobenius.get(t)
        if images is None:
            xt = self.pow(self.encode(self.l), self.l**t)
            images = [1]
            for _ in range(self.k - 1):
                images.append(self.mul(images[-1], xt))
            self._frobenius[t] = images
        return images


# ---------------------------------------------------------------------------
# the tower L/E and the algebra
# ---------------------------------------------------------------------------


class FiniteFieldTower:
    """E = F_{l^d} inside L = F_{l^(rd)}, tau = Frobenius^d of order r.

    Its methods take and return encodings. It also fixes the packing of
    algebra elements: r slots of 2k - 1 fields, each field as wide as the
    field's own, so packing.layout(k * k, l, r (2k - 1)) reduces them all."""

    def __init__(self, l, d, r):
        whole(r, "relative degree r", floor=2)
        whole(d, "base degree d", floor=1)
        self.l = l
        self.d = d
        self.r = r
        self.field = f = FiniteField(l, d * r)
        width = 8 * f._size
        self._slot = width * (2 * f.k - 1)  # bits per slot
        ones = sum(1 << self._slot * i for i in range(r))
        # the field's qmask covers one slot, so this is layout's for r slots
        self._qmask = f._qmask * ones
        self._digit_mask = ((1 << width) - 1) * ones  # field 0 of every slot
        self._coeff_mask = f._low * ones  # fields 0, ..., k - 1 of every slot
        self._fold_shifts = [f._top + shift for shift in f._shifts[:-1]]
        self._algebras = {}  # b -> ca_mul's tables for (L/E, tau, b), from _algebra

    def tau(self, e):
        f = self.field
        return f.decode(f.frobenius(f.encode(e), self.d))

    def is_in_base(self, e):
        return self.tau(e) == e

    def norm(self, e):
        f = self.field
        a, out = f.encode(e), 1
        for j in range(self.r):
            out = f.mul(out, f.frobenius(a, self.d * j))
        return f.decode(out)

    def _reduce(self, v):
        """v with every field of its r slots, each below 2^h, reduced mod l."""
        f = self.field
        return packing.reduce(v, self.l, f._m, f._s, self._qmask)

    def _algebra(self, b):
        """ca_mul's tables for (L/E, tau, b), b checked once: for j = 1, ...,
        r - 1, the packed images of the power basis under the F_l-linear
        c -> tau^j(c), the same times b for the slots i >= r - j that wrap
        by u^r = b, and the mask of the slots below them."""
        tables = self._algebras.get(b)
        if tables is None:
            if b == 0 or not self.is_in_base(b):
                raise ValueError("b must be a nonzero element of the base field")
            f, r, packed = self.field, self.r, self.field.encode(b)
            tables = []
            for j in range(1, r):
                images = f._images(self.d * j)
                wraps = images if b == 1 else [f.mul(packed, im) for im in images]
                tables.append((images, wraps, (1 << self._slot * (r - j)) - 1))
            self._algebras[b] = tables
        return tables

    def base_elements(self):
        return [e for e in range(self.field.order) if self.is_in_base(e)]

    def __repr__(self):
        return f"FiniteFieldTower(F_{self.l ** (self.d * self.r)}/F_{self.l ** self.d})"


@dataclass(frozen=True)
class AlgebraElement:
    """Sum of u^j c_j, packed: c_j in slot j of the tower's layout. Every
    field is below l and the top k - 1 fields of a slot are 0, so equality,
    hashing and is_zero on the packed int are exact."""

    tower: object
    b: int  # encoding
    packed: int

    @property
    def coeffs(self):
        """The encodings of c_0, ..., c_(r-1)."""
        tower, f = self.tower, self.tower.field
        return tuple(f.decode((self.packed >> tower._slot * i) & f._low) for i in range(tower.r))

    def is_zero(self):
        return not self.packed


def _check_same_algebra(x, y):
    if x.tower is not y.tower or x.b != y.b:
        raise ValueError("elements live in different algebras")


def algebra_element(tower, b, coeffs):
    """The element with coefficient encodings coeffs, ints each read mod l^(rd)."""
    tower._algebra(whole(b, "b"))  # raises ValueError unless b is a unit of E
    coeffs = tuple(coeffs)
    if len(coeffs) != tower.r:
        raise ValueError(f"need exactly {tower.r} coefficients")
    f, packed, shift = tower.field, 0, 0
    for i, c in enumerate(coeffs):
        packed |= f.encode(whole(c, f"coefficient {i}")) << shift
        shift += tower._slot
    return AlgebraElement(tower, b, packed)


def ca_one(tower, b):
    return algebra_element(tower, b, (1,) + (0,) * (tower.r - 1))


def ca_add(x, y):
    _check_same_algebra(x, y)
    return AlgebraElement(x.tower, x.b, x.tower._reduce(x.packed + y.packed))


def ca_mul(x, y):
    """(u^i c)(u^j d) = u^(i+j) tau^j(c) d, with u^r = b folding the wrap,
    on all r slots of x at once.

    j = 0 is one product, x times d_0. For each j >= 1 with d_j != 0, digit
    t of every slot, C_t, times the image of x^t under tau^j (times b in the
    slots that wrap) sums to tau^j of every coefficient; a reduce, a product
    with d_j and a shift by j slots place it. A field of the sum holds at
    most r k <= k^2 products. The slots past r - 1 fold onto the bottom, a
    reduce, the top k - 1 fields of every slot fold in as in _Quotient.mul,
    and a last reduce.
    """
    _check_same_algebra(x, y)
    tower, f = x.tower, x.tower.field
    xs, ys, slot, low, digit = x.packed, y.packed, tower._slot, f._low, tower._digit_mask
    digits = [(xs >> shift) & digit for shift in f._shifts]
    total = xs * (ys & low)
    for j, (images, wraps, below) in enumerate(tower._algebra(x.b), 1):
        d = (ys >> slot * j) & low
        if d:
            if wraps is images:
                tau = sum(map(mul, digits, images))
            else:
                stay = [c & below for c in digits]
                tau = sum(map(mul, stay, images)) + sum(map(mul, map(sub, digits, stay), wraps))
            total += tower._reduce(tau) * d << slot * j
    top = slot * tower.r
    total = tower._reduce((total & (1 << top) - 1) + (total >> top))
    high = [(total >> shift) & digit for shift in tower._fold_shifts]
    total = (total & tower._coeff_mask) + sum(map(mul, high, f._folds))
    return AlgebraElement(tower, x.b, tower._reduce(total))


# ---------------------------------------------------------------------------
# norms and splitting certificates
# ---------------------------------------------------------------------------


def solve_norm(tower, b):
    """First w in encoding order with N_{L/E}(w) = b (norms are onto E^x);
    FiniteField bounds the scan by MAX_FIELD_ORDER."""
    tower._algebra(whole(b, "b"))  # raises ValueError unless b is a unit of E
    for w in range(1, tower.field.order):
        if tower.norm(w) == b:
            return w
    raise InternalCheckError(f"norm {b} has no preimage; field arithmetic is broken")


@dataclass(frozen=True)
class CertifiedSplit:
    tower: object
    b: int
    w: int  # norm preimage of b
    v: object  # u * w^(-1), satisfies v^r = 1
    z: object  # 1 + v + ... + v^(r-1), the zero divisor


def split_certificate(tower, b):
    """An explicit zero divisor certifying that (L/E, tau, b) splits.

    With N(w) = b and v = u w^(-1) one has v^r = 1, so z = 1 + v + ... +
    v^(r-1) commutes with v and v z = z v = v + ... + v^r = z, that is
    z (v - 1) = (v - 1) z = 0. v != 1 by construction (slot 0 of v is 0), so
    v - 1 is a nonzero kernel vector of left multiplication by z, and the
    regular matrix of z is singular over L. One loop forms v^2, ..., v^r and
    sums z on the way; v^r = 1, z != 0, v z = z and z v = z are re-verified.
    """
    w = solve_norm(tower, b)
    f, r = tower.field, tower.r
    one = ca_one(tower, b)
    v = AlgebraElement(tower, b, f.inv(f.encode(w)) << tower._slot)
    z, vj = one, v
    for _ in range(r - 1):
        z = ca_add(z, vj)
        vj = ca_mul(vj, v)
    if vj != one:
        raise InternalCheckError("v^r != 1 for v = u/w")
    if z.is_zero():
        raise InternalCheckError("certificate summed to zero")
    if ca_mul(v, z) != z:
        raise InternalCheckError("v z != z, so (v - 1) z != 0")
    if ca_mul(z, v) != z:
        raise InternalCheckError("z v != z, so z (v - 1) != 0")
    return CertifiedSplit(tower, b, w, v, z)


# ---------------------------------------------------------------------------
# index/centralizer ladder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderRow:
    i: int
    base_degree: int  # [F_i : F] = p^(i-1)
    centralizer_dim: int  # dim over F_i of the centralizer = p^(2(n-i+1))
    index: int  # ind A_i = p^(n-i+1)
    m: int  # m(L_i / F_i) = n - i


def index_ladder(p, n):
    """Centralizer dimensions and indices along the tower, from their formulas.

    At level i, dim_F C * [F_i : F]^2 = p^(2(n-i+1)) p^(2(i-1)) = p^(2n) is
    the double-centralizer count and the index p^(n-i+1) is the square root
    of dim_F C: identities of powers of p, which verify-paper's c08 re-derives.
    """
    if not is_prime(whole(p, "p")):
        raise ValueError(f"{shown(p)} is not prime")
    whole(n, "n", floor=1, ceiling=MAX_N)
    rows = []
    for i in range(1, n + 1):
        base_degree = p ** (i - 1)
        centralizer_dim = p ** (2 * (n - i + 1))
        index = p ** (n - i + 1)
        rows.append(LadderRow(i, base_degree, centralizer_dim, index, n - i))
    return tuple(rows)
