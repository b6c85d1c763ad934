"""Timing wrappers installed from outside the package, and the spans they record.

A traced worker calls `install(recorder)` after importing quivercalc.  Every
function named in SPANS or COUNTS is replaced at each place it is bound: the
class attribute for methods, and every module global in the package that holds
the same object (for example both `quivercalc.series.pochhammer_inv` and
`quivercalc.motivic.pochhammer_inv`).  Nothing under src/ changes.

A span is (name, start, end, parent span, request id).  Spans stay in memory as
flat arrays and are written to disk when the worker exits; `self_times` turns
them into per-name call counts and self time (duration minus the time covered
by direct child spans)."""

from __future__ import annotations

import array
import json
import sys
import time

# (metric name, module, attribute path) of every call timed as a span.  Names
# without a per-layer metric of their own still matter: their spans keep the
# callers' self time honest (cli.main.self_s would otherwise absorb the
# verify_* bodies).
SPANS = (
    ("series.laurent_mul", "quivercalc.series", "TruncatedLaurent.mul"),
    ("series.multi_mul", "quivercalc.series", "MultiSeries.mul"),
    ("series.pleth_log", "quivercalc.series", "pleth_log"),
    ("series.substitute", "quivercalc.series", "MultiSeries.substitute"),
    ("series.pochhammer_inv", "quivercalc.series", "pochhammer_inv"),
    ("motivic.motivic_series", "quivercalc.motivic", "motivic_series"),
    ("motivic.diagonalize", "quivercalc.motivic", "diagonalize"),
    ("motivic.verify_link_identity", "quivercalc.motivic", "verify_link_identity"),
    ("motivic.verify_unlink_identity", "quivercalc.motivic", "verify_unlink_identity"),
    ("motivic.verify_diagonalization", "quivercalc.motivic", "verify_diagonalization"),
    ("dt.dt_extract", "quivercalc.dt", "dt_extract"),
    ("linalg.add_row", "quivercalc.linalg", "IntegerEchelon.add_row"),
    ("linalg.reduce_vector", "quivercalc.linalg", "IntegerEchelon.reduce_vector"),
    ("linalg.rank_of_rows", "quivercalc.linalg", "rank_of_rows"),
    ("algebra.component_basis", "quivercalc.algebra", "component_basis"),
    ("algebra.relation_rows", "quivercalc.algebra", "relation_rows"),
    ("algebra.algebra_component", "quivercalc.algebra", "algebra_component"),
    ("algebra.unlink_differential", "quivercalc.algebra", "unlink_differential"),
    ("algebra.functional_dimension", "quivercalc.algebra", "functional_dimension"),
    ("algebra.poincare_check", "quivercalc.algebra", "poincare_check"),
    ("algebra.gr_linking_check", "quivercalc.algebra", "gr_linking_check"),
    ("algebra.homology_check", "quivercalc.algebra", "homology_check"),
    ("cli.main", "quivercalc.cli", "main"),
)

# Called too often for a span each; only counted.
COUNTS = (
    ("algebra.normalize_word", "quivercalc.algebra", "normalize_word"),
    ("algebra.component_build", "quivercalc.algebra", "AlgebraComponent.__init__"),
)


class Recorder:
    """In-memory span store for one worker process."""

    def __init__(self):
        self.names = []
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.requests = array.array("i")
        self.stack = []
        self.request = -1
        self.counters = {}

    def name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def open(self, nid):
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def save(self, path):
        """Write the spans as raw arrays after a JSON header line."""
        header = {"names": self.names, "counters": self.counters,
                  "spans": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.starts, self.ends, self.name_ids, self.parents,
                        self.requests):
                arr.tofile(fh)


def load(path):
    """Read a file written by Recorder.save: (header, arrays dict)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = {}
        for key, code in (("starts", "d"), ("ends", "d"), ("name_ids", "i"),
                          ("parents", "i"), ("requests", "i")):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays[key] = arr
    return header, arrays


def self_times(header, arrays):
    """{span name: [calls, self seconds]} from saved spans."""
    starts, ends = arrays["starts"], arrays["ends"]
    parents, name_ids = arrays["parents"], arrays["name_ids"]
    n = len(starts)
    covered = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    out = {name: [0, 0.0] for name in header["names"]}
    for i in range(n):
        entry = out[header["names"][name_ids[i]]]
        entry[0] += 1
        entry[1] += ends[i] - starts[i] - covered[i]
    return out


def _resolve(module, path):
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind(original, replacement):
    """Point every package-level binding of `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if modname == "quivercalc" or modname.startswith("quivercalc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


# Counters taken from a span's return value: name -> (counter, f(result)).
RESULT_COUNTS = {
    "linalg.add_row": ("linalg.add_row.rank_grew", bool),
    "algebra.component_basis": ("algebra.component_basis.monomials", len),
    "algebra.relation_rows": ("algebra.relation_rows.rows", lambda r: len(r[0])),
}


def _span_wrapper(rec, name, fn):
    nid = rec.name_id(name)
    open_, close = rec.open, rec.close

    if name == "series.laurent_mul":
        def wrapper(self, other, *args, **kwargs):
            rec.count("series.laurent_mul.operand_terms",
                      len(self.coeffs) * len(other.coeffs))
            idx = open_(nid)
            try:
                return fn(self, other, *args, **kwargs)
            finally:
                close(idx)
        return wrapper

    counter, measure = RESULT_COUNTS.get(name, (None, None))

    def wrapper(*args, **kwargs):
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if counter is not None:
            rec.count(counter, measure(result))
        return result
    return wrapper


def _count_wrapper(rec, name, fn):
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)
    return wrapper


def install(rec):
    """Wrap every SPANS and COUNTS target; quivercalc must be imported."""
    for table, make in ((SPANS, _span_wrapper), (COUNTS, _count_wrapper)):
        for name, module, path in table:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = make(rec, name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper)
