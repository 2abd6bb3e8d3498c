"""Root-of-unity content of a base field.

The roots of unity of the base form a cyclic group of order w, and the
largest k with a primitive p^k-th root of unity present is v_p(w). Two
encodings: a cyclotomic field Q(xi_N) by its conductor N (normalized odd or
divisible by 4), whose w is 2N for odd N and N for even N, or a finite field
F_q by its order, whose w is q - 1. The norm chain reads m = n - v_p(w) of
the canonical degree-p^n Kummer tower off that content.
"""

from dataclasses import dataclass

from .errors import MissingRootOfUnity
from .mvalue import NEG_INF
from .numtheory import MAX_N, factorize, is_prime, json_int, shown, shown_repr, valuation, whole


@dataclass(frozen=True)
class RootOfUnityContent:
    kind: str  # "cyclotomic" | "finite_field"
    value: int  # conductor N, or field order l

    def __post_init__(self):
        if self.kind == "cyclotomic":
            whole(self.value, "conductor", floor=1)
            if self.value % 2 == 0 and self.value % 4 != 0:
                raise ValueError(
                    "conductor must be odd or divisible by 4 "
                    "(Q(xi_2m) = Q(xi_m) for odd m)"
                )
        elif self.kind == "finite_field":
            whole(self.value, "field order", floor=2)
            _, fac = factorize(self.value)
            if len(fac) != 1:
                raise ValueError(f"{shown(self.value)} is not a prime power")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def cyclotomic(cls, conductor):
        if conductor % 2 == 0 and conductor % 4 != 0:
            conductor //= 2
        return cls("cyclotomic", conductor)

    @classmethod
    def finite_field(cls, order):
        return cls("finite_field", order)

    def max_power(self, p):
        """Largest k with a primitive p^k-th root of unity, 0 if none: v_p(w)
        for w the order of the base's roots of unity.

        Q(xi_N) holds exactly the 2N-th roots of unity for odd N and the N-th
        for even N; F_q holds the (q - 1)-th, so none of order p when p is
        the characteristic.
        """
        if self.kind == "cyclotomic":
            w = self.value if self.value % 2 == 0 else 2 * self.value
        else:
            w = self.value - 1
        return valuation(w, p)

    def describe(self):
        if self.kind == "cyclotomic":
            return f"Q(xi_{self.value})" if self.value > 1 else "Q"
        return f"F_{self.value}"

    def to_json(self):
        return {"kind": self.kind, _VALUE_KEYS[self.kind]: self.value}

    @classmethod
    def from_json(cls, data):
        """Strict: an object whose kind is "cyclotomic" with an integer
        conductor, or "finite_field" with an integer order."""
        kind = data.get("kind") if isinstance(data, dict) else None
        if kind not in ("cyclotomic", "finite_field"):
            raise ValueError(
                f"base must be a cyclotomic or finite_field object, got {shown_repr(data)}"
            )
        value = json_int(data, _VALUE_KEYS[kind], "base")
        return cls.cyclotomic(value) if kind == "cyclotomic" else cls.finite_field(value)


_VALUE_KEYS = {"cyclotomic": "conductor", "finite_field": "order"}


def m_from_root_content(base, p, n):
    """m of the canonical degree-p^n Kummer tower over a base with the
    given root-of-unity content, for n in 1..MAX_N.

    The chain: xi_p is a norm from level n down to level i exactly when
    xi_p is a p^(n-i)-th power of a root of unity in the base, i.e. when
    xi_{p^(n-i+1)} is present. So with s = max_power(p) the levels i with
    n - i + 1 <= s are the members, they start at level n - s + 1, and
    m = n - s; when s exceeds n, level 0 is a member and m = -infinity.
    """
    if not is_prime(whole(p, "p")):
        raise ValueError(f"{shown(p)} is not prime")
    whole(n, "n", floor=1, ceiling=MAX_N)
    s = base.max_power(p)
    if s < 1:
        raise MissingRootOfUnity(
            f"xi_{p} is not in {base.describe()}; m is undefined here"
        )
    return NEG_INF if s > n else n - s
