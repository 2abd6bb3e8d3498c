"""Normalized 2-cocycles on Z/a with values in Z/r (trivial action).

Values are exponents: a cocycle with values in the cyclic group generated by
a unit alpha of order r is stored as its base-alpha logarithm table. The
central objects are the block-carry cocycle, its scaled full-wrap companion,
and the explicit isomorphism between the two group extensions they define.
An extension is represented by its cocycle table and the isomorphism by its
shift, so every check reads a x a tables and nothing of size a r is built.

H^2(Z/a, Z/r) is cyclic of order gcd(a, r), generated by the wrap cocycle;
the sum of the c(i, 1) column realizes the isomorphism, giving a complete
invariant that the brute-force coboundary search validates independently.
"""

from dataclasses import dataclass
from itertools import chain, product
from math import gcd

from .errors import InternalCheckError, NotACocycle, SearchSpaceTooLarge
from .numtheory import shown, whole

MAX_A = 400  # largest a an a x a table is built for


@dataclass(frozen=True)
class Cocycle2:
    """Table c(i, j) for 0 <= i, j < a, entries in Z/r, c(0,.) = c(.,0) = 0."""

    a: int
    r: int
    table: tuple

    def __post_init__(self):
        whole(self.a, "a", floor=1)
        whole(self.r, "r", floor=1)
        if len(self.table) != self.a or any(len(row) != self.a for row in self.table):
            raise ValueError("table must be a x a")
        entries = list(chain.from_iterable(self.table))
        if list(map(type, entries)).count(int) != len(entries):
            raise ValueError("entries must be integers")
        if not 0 <= min(entries) <= max(entries) < self.r:
            raise ValueError("entries must be reduced mod r")
        if any(self.table[0]) or any(row[0] for row in self.table):
            raise ValueError("cocycle is not normalized")


def zero_cocycle(a, r):
    """The carrying cocycle with b = 1, which never carries."""
    return carrying_cocycle(a, 1, r)


def carrying_cocycle(a, b, r):
    """c(i,j) = floor((i+j)/b) - floor(i/b) - floor(j/b) mod r, integer sum.

    For b dividing a this is the indicator of a carry: it equals 1 exactly
    when (i mod b) + (j mod b) >= b. With b = a it is the full wrap-around
    cocycle of the cyclic extension Z/ar of Z/a.
    """
    if whole(a, "a") % whole(b, "b", floor=1) != 0:
        raise ValueError("b must be a positive divisor of a")
    whole(r, "r", floor=1)
    if whole(a, "a", floor=1) > MAX_A:
        raise SearchSpaceTooLarge(f"a = {shown(a)} > {MAX_A}")
    table = tuple(
        tuple(((i + j) // b - i // b - j // b) % r for j in range(a)) for i in range(a)
    )
    return Cocycle2(a, r, table)


def scale_cocycle(c, q):
    """Multiply every value by q in Z/r (the q-th power on cohomology)."""
    whole(q, "q")
    table = tuple(tuple(x * q % c.r for x in row) for row in c.table)
    return Cocycle2(c.a, c.r, table)


def is_cocycle(c):
    """The 2-cocycle identity, decided on the a x a table in O(a^2).

    c is a cocycle iff c = k * wrap + coboundary(f), where wrap(i, j) =
    [i + j >= a], k is the sum of the column c(., 1), and f(0) = f(1) = 0,
    f(i + 1) = f(i) - c(i, 1). For then d = c - k * wrap - coboundary(f) is
    a normalized cocycle with d(., 1) = 0, and the identity at (i, j, 1)
    gives d(i, j + 1) = d(i, j), so d = 0.
    """
    a, r = c.a, c.r
    t = c.table
    col = [row[1 % a] for row in t]
    k = sum(col) % r
    f = [0] * a
    for i in range(1, a - 1):
        f[i + 1] = f[i] - col[i]
    return all(
        t[i][j] == (k * (i + j >= a) + f[i] + f[j] - f[(i + j) % a]) % r
        for i in range(a)
        for j in range(a)
    )


# ---------------------------------------------------------------------------
# the carry/wrap isomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsomorphismWitness:
    """A verified isomorphism (m, i) -> (m + shift[i], i) from the extension
    of phi to that of psi, both central extensions of Z/a by Z/r."""

    q: int
    phi: Cocycle2  # the scaled full-wrap cocycle
    psi: Cocycle2  # the block-carry cocycle
    shift: list
    invariant: int  # h2_invariant shared by phi and psi


# largest extension order a * r answered; no structure of that size is built,
# the bound keeps the set of inputs that answer fixed
MAX_ORDER = 160_000


def shift_defect(phi, psi, shift):
    """First (i, j) at which (m, i) -> (m + shift[i], i) is not multiplicative
    from the extension of phi to that of psi, else None. The m-components
    cancel, so on (m1, i), (m2, j) it is iff phi(i, j) + shift[i + j] =
    psi(i, j) + shift[i] + shift[j]: a^2 index pairs, not (a r)^2 elements.
    """
    a, r = phi.a, phi.r
    for i, (row_phi, row_psi) in enumerate(zip(phi.table, psi.table)):
        for j in range(a):
            if (row_phi[j] + shift[(i + j) % a] - row_psi[j] - shift[i] - shift[j]) % r:
                return i, j
    return None


def extension_isomorphism(a, b, r):
    """Identify the scaled full-wrap extension with the block-carry extension.

    With q = a/b, the cocycles phi(i, j) = q [i + j >= a], the full wrap
    carrying(a,a,r) scaled by q, and psi = carrying(a,b,r) define isomorphic
    extensions via (m, i) -> (m + shift[i], i), shift[i] = floor(i/b). Both
    tables are checked to be cocycles. The map translates the fibre over
    each i, so it is bijective and fixes the quotient Z/a by its form, fixes
    the central Z/r = {(m, 0)} as shift[0] = floor(0/b) = 0, and is
    multiplicative iff shift_defect finds nothing. The two classes must then
    share their invariant. Above MAX_A or MAX_ORDER this raises
    SearchSpaceTooLarge before any table is built.
    """
    if whole(a, "a") % whole(b, "b", floor=1) != 0:
        raise ValueError("b must be a positive divisor of a")
    if a > MAX_A:
        raise SearchSpaceTooLarge(f"a = {shown(a)} > {MAX_A}")
    if a * whole(r, "r", floor=1) > MAX_ORDER:
        raise SearchSpaceTooLarge(f"group order a * r = {a} * {shown(r)} > {MAX_ORDER}")
    q = a // b
    psi = carrying_cocycle(a, b, r)
    # q times the full wrap [i + j >= a]: row i is q from column a - i on
    phi = Cocycle2(a, r, tuple((0,) * (a - i) + (q % r,) * i for i in range(a)))
    inv_phi, inv_psi = h2_invariant(phi), h2_invariant(psi)
    shift = [i // b % r for i in range(a)]
    defect = shift_defect(phi, psi, shift)
    if defect is not None:
        i, j = defect
        raise InternalCheckError(f"carry-shift map fails at {(0, i)} * {(0, j)}")
    if inv_phi != inv_psi:
        raise InternalCheckError("isomorphic extensions with different invariants")
    return IsomorphismWitness(q, phi, psi, shift, inv_psi)


# ---------------------------------------------------------------------------
# cohomology class invariants
# ---------------------------------------------------------------------------


def h2_invariant(c):
    """Sum of the c(i, 1) column mod gcd(a, r): a complete class invariant.

    Coboundaries shift the full sum by a * f(1), which dies mod gcd(a, r),
    and the full-wrap cocycle hits 1, so this maps H^2 onto Z/gcd(a, r)
    isomorphically.
    """
    if not is_cocycle(c):
        raise NotACocycle("invariant of a non-cocycle is undefined")
    d = gcd(c.a, c.r)
    return sum(c.table[i][1 % c.a] for i in range(c.a)) % d if d > 1 else 0


MAX_COCHAINS = 10**6  # most 1-cochains cohomologous_bruteforce scans


def cohomologous_bruteforce(c1, c2):
    """First normalized 1-cochain f with c1 - c2 = coboundary(f), else None.

    Searches all r^(a-1) candidates in lexicographic order; the returned f
    satisfies c1(i,j) = c2(i,j) + f(i) + f(j) - f(i+j) mod r.
    """
    if (c1.a, c1.r) != (c2.a, c2.r):
        raise ValueError("cocycles live on different groups")
    a, r = c1.a, c1.r
    if r ** (a - 1) > MAX_COCHAINS:
        raise SearchSpaceTooLarge(f"{shown(r)}^{a - 1} cochains exceed limit {MAX_COCHAINS}")
    diff = tuple(
        tuple((x - y) % r for x, y in zip(row1, row2))
        for row1, row2 in zip(c1.table, c2.table)
    )
    for tail in product(range(r), repeat=a - 1):
        f = (0,) + tail
        if all(
            (f[i] + f[j] - f[(i + j) % a]) % r == diff[i][j]
            for i in range(a)
            for j in range(a)
        ):
            return f
    return None
