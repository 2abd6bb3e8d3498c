"""Root-of-unity content of a base field.

Records, for each prime p, the largest k with a primitive p^k-th root of
unity present. Two encodings: a cyclotomic field by its conductor
(normalized odd or divisible by 4), or a finite field by its order. The
norm chain reads m of the canonical Kummer tower off that content.
"""

from dataclasses import dataclass

from .errors import InternalCheckError, MissingRootOfUnity
from .mvalue import NEG_INF
from .numtheory import factorize, is_prime, json_int, valuation


@dataclass(frozen=True)
class RootOfUnityContent:
    kind: str  # "cyclotomic" | "finite_field"
    value: int  # conductor N, or field order l

    def __post_init__(self):
        if self.kind == "cyclotomic":
            if self.value < 1:
                raise ValueError("conductor must be positive")
            if self.value % 2 == 0 and self.value % 4 != 0:
                raise ValueError(
                    "conductor must be odd or divisible by 4 "
                    "(Q(xi_2m) = Q(xi_m) for odd m)"
                )
        elif self.kind == "finite_field":
            if self.value < 2:
                raise ValueError("field order must be >= 2")
            _, fac = factorize(self.value)
            if len(fac) != 1:
                raise ValueError(f"{self.value} is not a prime power")
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
        """Largest k with a primitive p^k-th root of unity, 0 if none.

        Cyclotomic: xi_{p^k} in Q(xi_N) iff p^k | N, except that -1 is
        always present. Finite field: iff p^k | l - 1 (so 0 whenever p is
        the characteristic).
        """
        if self.kind == "cyclotomic":
            k = valuation(self.value, p) if self.value > 1 else 0
            if p == 2:
                k = max(k, 1)
            return k
        return valuation(self.value - 1, p) if (self.value - 1) % p == 0 else 0

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
            raise ValueError(f"base must be a cyclotomic or finite_field object, got {data!r}")
        value = json_int(data, _VALUE_KEYS[kind], "base")
        return cls.cyclotomic(value) if kind == "cyclotomic" else cls.finite_field(value)


_VALUE_KEYS = {"cyclotomic": "conductor", "finite_field": "order"}


def m_from_root_content(base, p, n):
    """m of the canonical degree-p^n Kummer tower over a base with the
    given root-of-unity content.

    The chain: xi_p is a norm from level n down to level i exactly when
    xi_p is a p^(n-i)-th power of a root of unity in the base, i.e. when
    xi_{p^(n-i+1)} is present. So with s the largest power present,
    membership starts at level n-s+1 and m = n - s, or -infinity when s
    exceeds n (membership already at level 0).
    """
    if not is_prime(p) or n < 1:
        raise ValueError("p must be prime and n >= 1")
    s = base.max_power(p)
    if s < 1:
        raise MissingRootOfUnity(
            f"xi_{p} is not in {base.describe()}; m is undefined here"
        )
    members = [i for i in range(n + 1) if n - i + 1 <= s]
    if members != list(range(members[0], n + 1)):
        raise InternalCheckError("norm membership set is not upward closed")
    if members[0] == 0:
        return NEG_INF
    return members[0] - 1
