"""Values of the norm invariant m.

m is an integer >= 0, or -infinity when the distinguished root of unity is
already a norm from the full extension. Two sentinels cover partial
knowledge: UNDETERMINED when a decomposition shape carries no exceptional
summand (any m, or none, is consistent), and UNDETERMINED_LE0 when a
criterion pins m to {0, -infinity} without separating the two.
"""

NEG_INF = float("-inf")


class _Sentinel:
    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


UNDETERMINED = _Sentinel("undetermined")
UNDETERMINED_LE0 = _Sentinel("undetermined<=0")


def format_m(m):
    if m == NEG_INF:
        return "-inf"
    if isinstance(m, _Sentinel):
        return m.label
    return str(m)
