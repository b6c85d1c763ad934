"""Seeded request lists for the four benchmark workloads, and the expected
outcome of every request.

A workload is a list of CLI requests over generated quiver files.  Its cells
(quiver, command, order or component) are fixed, so every seed does the same
amount of work and the end-to-end figures compare across seeds; the heavy
ROADMAP baselines are in every pass.  The seed picks each quiver's vertex
labels, the vertex pair and its orientation for the pair commands of
identity-verify, the orders of its printed-preset and Poincare requests, and
the request order."""

from __future__ import annotations

import json
import random

FLEET = {
    "A2": ((0, 1), (1, 0)),
    "M2": ((0, 2), (2, 0)),
    "M2L": ((1, 2), (2, 0)),
    "MIX3": ((1, 1, 0), (1, 0, 2), (0, 2, 1)),
    "L0": ((0,),),
    "L1": ((1,),),
    "L2": ((2,),),
    "L3": ((3,),),
}
LOOP_QUIVERS = ("L0", "L1", "L2", "L3")
LABEL_POOL = "abcdefghkmnpqrstuvwxyz"
PRINTED = "printed.json"

WORKLOADS = ("series-dt", "identity-verify", "algebra-rank", "algebra-homology")


class Builder:
    """Collects files and requests for one workload under one seed."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.labels = {name: self.rng.sample(LABEL_POOL, len(matrix))
                       for name, matrix in FLEET.items()}
        self.files = {f"{name}.json": json.dumps(
            {"vertices": self.labels[name], "matrix": [list(r) for r in matrix]},
            indent=2) + "\n" for name, matrix in FLEET.items()}
        self.files[PRINTED] = json.dumps({"preset": "printed"}) + "\n"
        self.requests = []

    def pair(self, quiver, choices, orient=True):
        """Vertex labels for one of the index pairs in `choices`, in a
        seeded orientation unless `orient` is false."""
        i, j = self.rng.choice(choices)
        if orient and self.rng.random() < 0.5:
            i, j = j, i
        return self.labels[quiver][i], self.labels[quiver][j]

    def add(self, argv, expect, defect=False):
        request = {"argv": [str(x) for x in argv], "expect": expect}
        if defect:
            request["defect"] = True
        self.requests.append(request)


def _series_dt(b):
    for order in (8, 10):  # ROADMAP baselines
        b.add(["dt", "MIX3.json", "--order", order, "--output", "json"], {"exit": 0})
    for quiver in ("A2", "M2", "M2L"):
        for order in (7, 8):
            b.add(["dt", f"{quiver}.json", "--order", order, "--output", "json"],
                  {"exit": 0})
    for quiver in LOOP_QUIVERS:
        for order in range(7, 13):
            b.add(["dt", f"{quiver}.json", "--order", order, "--output", "json"],
                  {"exit": 0})
    b.rng.shuffle(b.requests)


# index pairs with at least one arrow (unlinking needs one); linking takes any
ARROW_PAIRS = {"A2": [(0, 1)], "M2": [(0, 1)], "M2L": [(0, 1)],
               "MIX3": [(0, 1), (1, 2)]}
ANY_PAIRS = {"A2": [(0, 1)], "M2": [(0, 1)], "M2L": [(0, 1)],
             "MIX3": [(0, 1), (1, 2), (0, 2)]}


def _diagonalization(b, quiver, order):
    b.add(["verify", "diagonalization", f"{quiver}.json", "--order", order,
           "--output", "json"], {"exit": 0})


def _identity_verify(b):
    for quiver, orders in (("M2", (4, 5)), ("A2", (4, 5, 6, 7)), ("M2L", (4, 5)),
                           ("MIX3", (4,))):
        for order in orders:
            _diagonalization(b, quiver, order)
    for kind, key, pairs in (("linking", "1", ANY_PAIRS),
                             ("unlinking", "0", ARROW_PAIRS)):
        for quiver in ("A2", "M2", "M2L", "MIX3"):
            for order in range(6, 11):
                a, c = b.pair(quiver, pairs[quiver])
                b.add(["verify", kind, f"{quiver}.json", a, c, "--order", order,
                       "--calibrate", "--output", "json"],
                      {"exit": 0, "calibration": key})
        for quiver in ("A2", "M2", "MIX3"):  # printed preset: must be refuted
            a, c = b.pair(quiver, pairs[quiver])
            b.add(["verify", kind, f"{quiver}.json", a, c, "--order",
                   b.rng.randint(6, 10), "--config", PRINTED, "--output", "json"],
                  {"exit": 1})
    for quiver in FLEET:
        b.add(["verify", "poincare", f"{quiver}.json", "--order",
               b.rng.randint(6, 10), "--output", "json"], {"exit": 0})
    # ROADMAP item 4: inputs that pass vacuously or crash today
    a, c = b.pair("A2", ARROW_PAIRS["A2"])
    b.add(["verify", "unlinking", "A2.json", a, c, "--qmin", -200, "--qmax", -190,
           "--config", PRINTED, "--output", "json"], {"exit_not": 0}, defect=True)
    b.add(["series", f"{b.rng.choice(list(FLEET))}.json", "--order", -1,
           "--output", "json"], {"exit": 2}, defect=True)
    b.add(["dt", f"{b.rng.choice(list(FLEET))}.json", "--guard", 0, "--order", 3,
           "--output", "json"], {"exit": 2}, defect=True)
    b.rng.shuffle(b.requests)
    # The largest requests run last, in a fixed order, so peak memory does not
    # depend on the seed; M2 at orders 6 and 7 are ROADMAP baselines.
    for quiver, order in (("M2", 6), ("MIX3", 5), ("M2", 7)):
        _diagonalization(b, quiver, order)


def _algebra_dims(b, quiver, degree, smax):
    b.add(["algebra-dims", f"{quiver}.json", "--degree",
           ",".join(str(x) for x in degree), "--smax", smax, "--output", "json"],
          {"exit": 0, "dims_match": True})


def _algebra_rank(b):
    # Five large components besides the baseline, so that the tail (the 11th
    # largest of two passes) falls among them and not on the edge between
    # them and the small loop-quiver requests.
    for quiver, degree, smax in (("A2", (3, 3), 13), ("A2", (4, 4), 12),
                                 ("M2L", (2, 3), 12), ("M2L", (2, 2), 16),
                                 ("MIX3", (1, 2, 2), 10)):
        _algebra_dims(b, quiver, degree, smax)
    for quiver in LOOP_QUIVERS:
        for degree in range(2, 9):
            _algebra_dims(b, quiver, (degree,), 14)
    b.rng.shuffle(b.requests)
    # The ROADMAP h = -28 baseline runs last: the pass's peak memory is then
    # every cached component plus its working set, whatever the seeded order.
    _algebra_dims(b, "M2", (3, 3), 14)


HOMOLOGY_PAIRS = {"A2": [(0, 1)], "M2": [(0, 1)], "M2L": [(0, 1)],
                  "MIX3": [(1, 2)]}


def _algebra_homology(b):
    # (bound, smax) per check; M2 at bound 6 is the ROADMAP baseline.  One
    # block per quiver: its checks, then a gr check and small algebra-dims
    # requests that read components the checks built.
    checks = {"M2": [(6, 8), (5, 8), (4, 10)], "A2": [(6, 8), (5, 8), (4, 10)],
              "M2L": [(6, 8), (5, 8), (4, 10)], "MIX3": [(5, 8), (4, 8)]}
    blocks = []
    for quiver, params in checks.items():
        b.requests = []
        # one unlinked quiver, in a fixed orientation: the cost of the checks
        # depends on it (MIX3 at bound 4 by a factor of two)
        a, c = b.pair(quiver, HOMOLOGY_PAIRS[quiver], orient=False)
        for bound, smax in params:  # largest first; the rest mostly reuse it
            b.add(["verify", "homology", f"{quiver}.json", a, c, "--order", bound,
                   "--smax", smax, "--output", "json"], {"exit": 0})
        b.add(["verify", "gr", f"{quiver}.json", a, c, "--order", 5,
               "--output", "json"], {"exit": 0})
        # the same six degrees under every seed, so every seed does the same
        # work; the seed only orders them
        degrees = [d for d in _degrees(len(FLEET[quiver]), 4) if sum(d) >= 2]
        degrees = random.Random(quiver).sample(degrees, 6)
        b.rng.shuffle(degrees)
        for degree in degrees:
            _algebra_dims(b, quiver, degree, 8)
        blocks.append(b.requests)
    b.rng.shuffle(blocks)
    b.requests = [r for block in blocks for r in block]


def _degrees(n, top):
    """Dimension vectors of length n with entries summing to at most top."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(top + 1) for rest in _degrees(n - 1, top - k)]


GENERATORS = {"series-dt": _series_dt, "identity-verify": _identity_verify,
              "algebra-rank": _algebra_rank, "algebra-homology": _algebra_homology}


def generate(workload, seed):
    """{"files": {name: text}, "requests": [{"argv", "expect"[, "defect"]}]}."""
    b = Builder(seed)
    GENERATORS[workload](b)
    return {"files": b.files, "requests": b.requests}


def check(expect, code, stdout):
    """(ok, reason) for one request's exit code and standard output."""
    if "exit" in expect and code != expect["exit"]:
        return False, f"exit {code}, expected {expect['exit']}"
    if "exit_not" in expect and code == expect["exit_not"]:
        return False, f"exit {code}, expected anything else"
    if "calibration" in expect or "dims_match" in expect:
        try:
            payload = json.loads(stdout)
        except ValueError:
            return False, "output is not JSON"
        if "calibration" in expect:
            chosen = sorted(k for k, v in payload["details"]["calibration"].items() if v)
            if chosen != [expect["calibration"]]:
                return False, f"calibration singled out {chosen}"
        if "dims_match" in expect:
            bad = [row["hdeg"] for row in payload["components"]
                   if row["dimension"] != row["functional_dimension"]]
            if bad:
                return False, f"rank and functional dimension differ at h={bad}"
    return True, ""
