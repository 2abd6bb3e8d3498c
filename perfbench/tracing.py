"""Per-layer tracing by wrapping the public functions of each layer.

The wrappers live here, not in the program: `Tracer.installed()` swaps
each target for a wrapper and puts the original back on exit. A wrapper
records one span (id, name, start, end, parent span, op id) per call and
adds the call's self time, its duration minus the time covered by child
spans, to the layer's total. Spans stay in memory until `write`.
"""

import contextlib
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict


def _rank_sequence_counts(counts, args, kwargs, result, error):
    if result is not None:
        n = args[1]
        counts["kernels.nilpotent_rank_sequence.entries"] += n * n
        counts["kernels.nilpotent_rank_sequence.steps"] += len(result)


def _dirichlet_counts(counts, args, kwargs, result, error):
    # candidates q = 1 + p^n + k p^(n+1) scanned up to the answer, or up to
    # the limit when the search ran out
    p, n = args[0], args[1]
    last = result
    if type(error).__name__ == "NotFoundBelowLimit":
        last = args[2] if len(args) > 2 else kwargs.get("limit", 10**6)
    if last is not None:
        start, step = 1 + p**n, p ** (n + 1)
        counts["m_invariant.find_dirichlet_prime.candidates"] += (last - start) // step + 1


def _extension_counts(counts, args, kwargs, result, error):
    a, _, r = args[:3]
    counts["cohomology.extension_isomorphism.pairs"] += (a * r) ** 2


def _proposition_counts(counts, args, kwargs, result, error):
    if result is not None:
        counts["ufd_norm.proposition_check.representatives"] += result.representatives


# (layer name, module[:class], attribute, publish self time, extra counter)
TARGETS = (
    ("kernels.nilpotent_rank_sequence", "_kernels", "nilpotent_rank_sequence", True, _rank_sequence_counts),
    ("kernels.rref", "_kernels", "rref", True, None),
    ("kernels.rank", "_kernels", "rank", True, None),
    ("kernels.mat_mul", "_kernels", "mat_mul", True, None),
    ("fp_linalg.FpMatrix", "fp_linalg:FpMatrix", "__init__", True, None),
    ("fp_linalg.inverse", "fp_linalg", "inverse", True, None),
    ("fp_linalg.random_invertible", "fp_linalg", "random_invertible", True, None),
    ("galois_module.GModule", "galois_module:GModule", "__init__", True, None),
    ("galois_module.module_from_json", "galois_module", "module_from_json", True, None),
    ("galois_module.jordan_profile", "galois_module", "jordan_profile", True, None),
    ("galois_module.classify_profile", "galois_module", "classify_profile", True, None),
    ("galois_module.synthesize", "galois_module", "synthesize", True, None),
    ("galois_module.bruteforce_block_sizes", "galois_module", "bruteforce_block_sizes", True, None),
    ("cli.main", "cli", "main", True, None),
    ("m_invariant.spec_from_json", "m_invariant", "spec_from_json", True, None),
    ("m_invariant.explain_m", "m_invariant", "explain_m", True, None),
    ("m_invariant.residue_norm_test", "m_invariant", "residue_norm_test", True, None),
    ("m_invariant.find_dirichlet_prime", "m_invariant", "find_dirichlet_prime", True, _dirichlet_counts),
    ("cohomology.is_cocycle", "cohomology", "is_cocycle", True, None),
    ("cohomology.extension_isomorphism", "cohomology", "extension_isomorphism", True, _extension_counts),
    ("cohomology.cohomologous_bruteforce", "cohomology", "cohomologous_bruteforce", True, None),
    ("cyclic_algebra.split_certificate", "cyclic_algebra", "split_certificate", True, None),
    ("cyclic_algebra.ca_mul", "cyclic_algebra", "ca_mul", True, None),
    ("cyclic_algebra.norm", "cyclic_algebra:FiniteFieldTower", "norm", False, None),
    ("padic.hilbert_symbol", "padic", "hilbert_symbol", True, None),
    ("padic.quaternion_splits_Q", "padic", "quaternion_splits_Q", True, None),
    ("padic.hensel_sqrt", "padic", "hensel_sqrt", True, None),
    ("ufd_norm.proposition_check", "ufd_norm", "proposition_check", True, _proposition_counts),
)

# imported by name into several modules: every binding is wrapped
SHARED = (("numtheory.is_prime", "is_prime"), ("numtheory.factorize", "factorize"))

COUNTERS = (
    "kernels.nilpotent_rank_sequence.entries",
    "kernels.nilpotent_rank_sequence.steps",
    "m_invariant.find_dirichlet_prime.candidates",
    "cohomology.extension_isomorphism.pairs",
    "ufd_norm.proposition_check.representatives",
)


def metric_names():
    """Names of the per-layer metrics `Tracer.metrics` reports."""
    names = []
    for name, _, _, timed, _ in TARGETS:
        names += [f"{name}.calls"] + ([f"{name}.self_s"] if timed else [])
    for name, _ in SHARED:
        names += [f"{name}.calls", f"{name}.self_s"]
    return names + list(COUNTERS)


def _owner(spec):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(f"normtower.{module}")
    return getattr(owner, cls) if cls else owner


def shared_bindings(attr):
    """(module, attribute) for every normtower module binding numtheory.<attr>."""
    original = getattr(importlib.import_module("normtower.numtheory"), attr)
    return [
        (mod, attr)
        for key, mod in sorted(sys.modules.items())
        if key.startswith("normtower") and mod is not None and getattr(mod, attr, None) is original
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.op_id = None
        self._stack = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._t0 = time.perf_counter()

    def wrap(self, name, fn, extra=None):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                spans.append((sid, name, start - self._t0, end - self._t0, parent, self.op_id))
                if extra is not None:
                    extra(self.counts, args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, spec, attr, _, extra in TARGETS:
                owner = _owner(spec)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, extra))
            for name, attr in SHARED:
                bindings = shared_bindings(attr)
                wrapper = self.wrap(name, getattr(bindings[0][0], attr))
                for mod, _ in bindings:
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self):
        out = {}
        for name in metric_names():
            layer, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = {"value": self.calls[layer], "unit": "count"}
            elif stat == "self_s":
                out[name] = {"value": self.self_s[layer], "unit": "s"}
            else:
                out[name] = {"value": self.counts[name], "unit": "count"}
        return out

    def write(self, path):
        """All spans as gzipped JSON; times in seconds from tracer creation."""
        doc = {"columns": ["id", "name", "start_s", "end_s", "parent", "op"], "spans": self.spans}
        with gzip.open(path, "wt") as handle:
            json.dump(doc, handle, separators=(",", ":"))
