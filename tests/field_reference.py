"""The digit-list arithmetic of F_{l^k} that FiniteField used before its
packed route, kept as a test oracle: elements decode to base-l digit
lists, a product is a schoolbook polynomial product reduced by the monic
modulus, and Frobenius is a square-and-multiply power a^(l^times)."""


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
