"""Verification reports: a uniform pass/fail record with exact mismatch
payloads, produced by every identity checker in the package."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of one exact identity check.

    pass/fail is fully determined by the mismatch list.  Nothing timed is
    kept, so identical invocations give byte-identical canonical JSON."""

    name: str
    parameters: dict
    mismatches: list
    conventions: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return not self.mismatches

    def to_json(self):
        out = {
            "check": self.name,
            "parameters": self.parameters,
            "passed": self.passed,
            "mismatches": self.mismatches,
        }
        if self.conventions:
            out["conventions"] = self.conventions
        if self.details:
            out["details"] = self.details
        return out

    def summary(self):
        """One line: the verdict, the mismatch count of a failure, and the
        coverage counts the details carry, so a PASS shows what it rests on."""
        notes = [] if self.passed else [f"{len(self.mismatches)} mismatching components"]
        details = self.details
        if "degrees_compared" in details:
            notes.append(f"{details['degrees_nonzero']} of {details['degrees_compared']} "
                         "degrees nonzero on the window")
        if "components_nonzero" in details:
            notes.append(f"{details['components_nonzero']} of "
                         f"{details['components_checked']} components nonzero")
        if "compositions_checked" in details:
            notes.append(f"{details['compositions_checked']} compositions checked")
        extra = f" ({'; '.join(notes)})" if notes else ""
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}{extra}"


def degree_mismatch(degree, lhs, rhs):
    """Serialize one disagreeing multidegree coefficient pair."""
    return {"degree": list(degree), "lhs": lhs.to_json(), "rhs": rhs.to_json()}


def degree_coverage(lhs):
    """The coverage counts of a series check, for its report's details: the
    degrees 0 < |d| <= order of the left-hand series, and how many of them
    have a nonzero coefficient on the window."""
    compared = [term for d, term in lhs.terms.items() if any(d)]
    return {"degrees_compared": len(compared),
            "degrees_nonzero": sum(not term.is_zero() for term in compared)}


def inconclusive_unless(compared_nonzero, reason):
    """One inconclusive mismatch when nothing nonzero was compared, else
    none: a check that matched only zeros (or only the unit) shows nothing."""
    if compared_nonzero:
        return []
    return [{"kind": "inconclusive", "reason": reason}]


def inconclusive_mismatches(coverage, window):
    """One inconclusive mismatch when the degree_coverage of the left-hand
    series counts no degree |d| >= 1 nonzero on the window, else none.  A
    window below all support compares zeros with zeros, and the constant
    term 1 = 1 holds for every quiver, so neither shows anything."""
    return inconclusive_unless(
        coverage["degrees_nonzero"],
        f"left-hand series has no nonzero coefficient with |d| >= 1 on window "
        f"[{window[0]}, {window[1]}]; nothing beyond the unit was compared")
