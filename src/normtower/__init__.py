"""normtower: exact arithmetic for norm invariants of cyclic p-power extensions."""

__version__ = "0.1.0"
