"""Cyclic crossed-product algebras over finite fields.

The algebra (L/E, tau, b) is the direct sum of u^j L for 0 <= j < r with
u^(-1) d u = tau(d) and u^r = b, so
(u^i c)(u^j d) = u^(i+j) tau^j(c) d, with u^(i+j) reduced by u^r = b.
Over finite fields the norm is surjective, so every such algebra splits;
the splitting is certified by an explicit zero divisor built from a norm
preimage of b. The degree/index bookkeeping of the centralizer ladder is
exposed as exact integer identities.

A field element stays in one format here, the packed int of _Quotient; the
base-l encoding a user reads and writes is formed only at the edges:
FiniteFieldTower, algebra_element and AlgebraElement.coeffs.
"""

from dataclasses import dataclass
from operator import mul

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
    convert from and to the encoding sum c_i l^i. dot sums up to k products
    and reduces once (Dumas, Fousse and Salvy), mul is its one-pair case, and
    both end in _product. A product is one big-int multiply (Kronecker
    substitution) whose field t holds sum_(i+j=t) a_i b_j, at most k products,
    so a field of the sum holds at most k^2, as layout allows: one reduce
    brings all 2k - 1 fields below l. The top k - 1 fields c_(k+t) fold in as
    c_(k+t) (x^(k+t) mod f), k - 1 more products per field, and a second reduce.
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

    def _product(self, v):
        v = self._reduce(v)
        high = v >> self._top
        if high:
            v = self._reduce((v & self._low) + sum(map(mul, self._fields(high), self._folds)))
        return v

    def dot(self, us, vs):
        """sum u_i v_i over at most k pairs."""
        return self._product(sum(map(mul, us, vs)))

    def mul(self, u, v):
        return self._product(u * v)

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

    Its methods take and return encodings."""

    def __init__(self, l, d, r):
        whole(r, "relative degree r", floor=2)
        whole(d, "base degree d", floor=1)
        self.l = l
        self.d = d
        self.r = r
        self.field = FiniteField(l, d * r)
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

    def _algebra(self, b):
        """ca_mul's tables for (L/E, tau, b), b checked once: [i][j] holds the
        packed images of the power basis under the F_l-linear c -> tau^j(c),
        times b where i + j >= r wraps by u^r = b."""
        tables = self._algebras.get(b)
        if tables is None:
            if b == 0 or not self.is_in_base(b):
                raise ValueError("b must be a nonzero element of the base field")
            f, r, packed = self.field, self.r, self.field.encode(b)
            taus = [f._images(self.d * j) for j in range(r)]
            wraps = taus if b == 1 else [[f.mul(packed, im) for im in images] for images in taus]
            tables = [[(wraps if i + j >= r else taus)[j] for j in range(r)] for i in range(r)]
            self._algebras[b] = tables
        return tables

    def base_elements(self):
        return [e for e in range(self.field.order) if self.is_in_base(e)]

    def __repr__(self):
        return f"FiniteFieldTower(F_{self.l ** (self.d * self.r)}/F_{self.l ** self.d})"


@dataclass(frozen=True)
class AlgebraElement:
    """Sum of u^j c_j with packed coefficients c_j in L. Their fields are
    below l, so equality and is_zero on the packed form are exact."""

    tower: object
    b: int  # encoding
    packed: tuple

    @property
    def coeffs(self):
        """The encodings of c_0, ..., c_(r-1)."""
        return tuple(map(self.tower.field.decode, self.packed))

    def is_zero(self):
        return not any(self.packed)


def _check_same_algebra(x, y):
    if x.tower is not y.tower or x.b != y.b:
        raise ValueError("elements live in different algebras")


def algebra_element(tower, b, coeffs):
    """The element with coefficient encodings coeffs, each read mod l^(rd)."""
    tower._algebra(whole(b, "b"))  # raises ValueError unless b is a unit of E
    coeffs = tuple(coeffs)
    if len(coeffs) != tower.r:
        raise ValueError(f"need exactly {tower.r} coefficients")
    return AlgebraElement(tower, b, tuple(map(tower.field.encode, coeffs)))


def ca_one(tower, b):
    return algebra_element(tower, b, (1,) + (0,) * (tower.r - 1))


def ca_add(x, y):
    _check_same_algebra(x, y)
    return AlgebraElement(x.tower, x.b, tuple(map(x.tower.field.add, x.packed, y.packed)))


def ca_mul(x, y):
    """(u^i c)(u^j d) = u^(i+j) tau^j(c) d, with u^r = b folding the wrap.

    Each nonzero c is read as digits once, tau^j(c) (times b on the wrap) is
    k multiply-adds on the tower's tables, and one dot sums each slot.
    """
    _check_same_algebra(x, y)
    tower, f, r = x.tower, x.tower.field, x.tower.r
    tables = tower._algebra(x.b)
    ys = [(j, d) for j, d in enumerate(y.packed) if d]
    us, vs = [[] for _ in range(r)], [[] for _ in range(r)]
    for i, c in enumerate(x.packed):
        if c == 0:
            continue
        digits, row = f._fields(c), tables[i]
        for j, d in ys:
            slot = (i + j) % r
            us[slot].append(c if j == 0 else f._reduce(sum(map(mul, digits, row[j]))))
            vs[slot].append(d)
    return AlgebraElement(tower, x.b, tuple(map(f.dot, us, vs)))


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
    v = AlgebraElement(tower, b, (0, f.inv(f.encode(w))) + (0,) * (r - 2))
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
