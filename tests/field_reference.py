"""The digit-list arithmetic of F_{l^k} that FiniteField used before its
packed route, kept as a test oracle: elements decode to base-l digit
lists, a product is a schoolbook polynomial product reduced by the monic
modulus, and Frobenius is a square-and-multiply power a^(l^times). On
it sit the twisted product of the cyclic algebra, the regular
representation of an algebra element and a Gaussian-elimination
determinant: routes to the algebra's products and to the singularity of a
split certificate's zero divisor that share nothing with the packed
field."""


def poly_mul(a, b, l):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % l
    return out


def poly_mod(a, f, l):
    # f monic, little-endian, degree k
    a = list(a)
    k = len(f) - 1
    for i in range(len(a) - 1, k - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(k):
                a[i - k + j] = (a[i - k + j] - c * f[j]) % l
    return a[:k] + [0] * (k - len(a))


class DigitField:
    """F_l[x]/(modulus) on digit lists; elements are encoded as sum c_i l^i."""

    def __init__(self, l, modulus):
        self.l = l
        self.k = len(modulus) - 1
        self.modulus = list(modulus)

    def decode(self, e):
        return [(e // self.l**i) % self.l for i in range(self.k)]

    def encode(self, coeffs):
        return sum(c % self.l * self.l**i for i, c in enumerate(coeffs[: self.k]))

    def add(self, a, b):
        return self.encode([x + y for x, y in zip(self.decode(a), self.decode(b))])

    def sub(self, a, b):
        return self.encode([x - y for x, y in zip(self.decode(a), self.decode(b))])

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        prod = poly_mul(self.decode(a), self.decode(b), self.l)
        return self.encode(poly_mod(prod, self.modulus, self.l))

    def pow(self, a, e):
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a, times=1):
        return self.pow(a, self.l**times)


def regular_representation(field, d, b, coeffs):
    """Matrix over L of left multiplication by sum u^i c_i in the cyclic
    algebra (L/E, tau, b), tau = Frobenius^d, on the right-L-basis
    u^0, ..., u^(r-1). Column j is u^i c_i u^j = u^(i+j) tau^j(c_i) summed
    over i, with u^(i+j) reduced by u^r = b; the product x y then has
    coefficients M(x) times those of y."""
    r = len(coeffs)
    mat = [[0] * r for _ in range(r)]
    for j in range(r):
        for i, c in enumerate(coeffs):
            val = field.frobenius(c, d * j)
            if i + j >= r:
                val = field.mul(val, b)
            row = (i + j) % r
            mat[row][j] = field.add(mat[row][j], val)
    return mat


def twisted_product(field, d, b, x, y):
    """The coefficients of x y in the cyclic algebra (L/E, tau, b), tau =
    Frobenius^d, x and y given by their coefficient encodings: every
    (u^i c)(u^j e) = u^(i+j) tau^j(c) e, with u^(i+j) reduced by u^r = b."""
    r = len(x)
    out = [0] * r
    for i, c in enumerate(x):
        for j, e in enumerate(y):
            val = field.mul(field.frobenius(c, d * j), e)
            if i + j >= r:
                val = field.mul(val, b)
            out[(i + j) % r] = field.add(out[(i + j) % r], val)
    return out


def field_det(field, rows):
    """Determinant over the field by Gaussian elimination."""
    n = len(rows)
    m = [list(row) for row in rows]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = field.sub(0, det)
        det = field.mul(det, m[c][c])
        inv = field.pow(m[c][c], field.l**field.k - 2)
        for i in range(c + 1, n):
            if m[i][c]:
                fac = field.mul(m[i][c], inv)
                for j in range(c, n):
                    m[i][j] = field.sub(m[i][j], field.mul(fac, m[c][j]))
    return det
