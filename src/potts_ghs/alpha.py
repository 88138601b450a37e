"""The 64 aggregated coefficients of the reduced core and their signs.

alpha(x, y, z) is the coefficient of X_12**x X_13**y X_23**z in the
curvature sum when every other pair weight is 1 (at n_sites = 3: zero
field).  The table is read off the reduced core
``separation.reduced_expansion``, the expansion's factor product over the
three core pairs, so the table, the core of the separated form and the
expansion share one producer.  Evaluated at any r >= 3 the 64 entries are
all nonnegative, and at r = 2 all nonpositive (in fact zero).  So they
decide the curvature sign on the zero-field slice at n_sites = 3 only; at
positive fields and r >= 3 the curvature sum can be negative (all six
weights 2 at r = 3 give -1620864).

The module also carries the reference closed forms for the 18 entry classes,
each stated once as the text the source table this engine verifies prints
(read into a polynomial by ``ReferenceForm.poly``), and an exact
comparison of the computed entries against them.  Mismatches are reported
as possible errata in the reference, never silently adopted.  The
comparison also rebuilds every entry by the source's own construction, the
signed coefficients of the constraint matrices supported on the core pairs
summed by row weight, as a cross-check on the core; each matrix is built as
its three columns, subsets of the core pairs (1, 2), (1, 3), (2, 3).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product

from .constraints import matrix_coefficient
from .laurent import LaurentPoly
from .model import _require_triple, pair_order
from .modelfile import rational_str
from .separation import reduced_expansion


@lru_cache(maxsize=None)
def alpha(x: int, y: int, z: int, n_sites: int = 3) -> LaurentPoly:
    """Aggregated signed coefficient for core row weights (x, y, z): the
    coefficient of X_12**x X_13**y X_23**z in the reduced core."""
    for w in (x, y, z):
        if w not in (0, 1, 2, 3):
            raise ValueError(f"row weight {w} must be in 0..3")
    _require_triple(n_sites)
    p1, p2, p3 = pair_order(n_sites).core_indices
    return reduced_expansion(n_sites).coefficient({p1: x, p2: y, p3: z})


@dataclass(frozen=True)
class AlphaTable:
    """All 64 entries at a fixed size, with entry classes by exact equality."""

    n_sites: int
    entries: dict[tuple[int, int, int], LaurentPoly]
    symmetry_classes: tuple[tuple[tuple[int, int, int], ...], ...]


def alpha_table(n_sites: int = 3) -> AlphaTable:
    """Compute all 64 entries and group them into equal-value classes."""
    entries = {
        (x, y, z): alpha(x, y, z, n_sites)
        for x in range(4)
        for y in range(4)
        for z in range(4)
    }
    groups: dict[LaurentPoly, list[tuple[int, int, int]]] = {}
    for triple in sorted(entries):
        groups.setdefault(entries[triple], []).append(triple)
    classes = tuple(
        tuple(sorted(members)) for members in sorted(groups.values(), key=min)
    )
    return AlphaTable(n_sites=n_sites, entries=dict(entries), symmetry_classes=classes)


def expected_sign(n_states: int) -> str:
    """The sign dichotomy: "<=0" at r = 2 and ">=0" at r >= 3."""
    return "<=0" if n_states == 2 else ">=0"


def has_expected_sign(value, n_states: int, tol=0) -> bool:
    """Whether ``value`` has the expected sign at r = n_states, within ``tol``."""
    return value <= tol if expected_sign(n_states) == "<=0" else value >= -tol


def sign_report(table: AlphaTable, r_values: tuple[int, ...] | list[int]) -> dict:
    """Exact signs of every entry at each requested state count.

    The expected pattern is ``expected_sign``; state counts below 2 are
    rejected.
    """
    r_values = tuple(r_values)
    if not r_values:
        raise ValueError("r_values must be non-empty")
    for r in r_values:
        if not isinstance(r, int) or r < 2:
            raise ValueError(f"state count {r} must be an integer >= 2")
    per_r = {}
    dichotomy = True
    for r in r_values:
        violations = []
        counts = {"-1": 0, "0": 0, "+1": 0}
        for triple in sorted(table.entries):
            value = table.entries[triple].evaluate(r)
            sign = (value > 0) - (value < 0)
            counts[{-1: "-1", 0: "0", 1: "+1"}[sign]] += 1
            if not has_expected_sign(value, r):
                violations.append(
                    {"entry": _triple_key(triple), "value": rational_str(value)}
                )
        ok = not violations
        dichotomy = dichotomy and ok
        per_r[str(r)] = {
            "expected": expected_sign(r),
            "sign_counts": counts,
            "violations": violations,
            "verdict": "pass" if ok else "fail",
        }
    return {
        "n_sites": table.n_sites,
        "r_values": list(r_values),
        "per_r": per_r,
        "dichotomy_holds": dichotomy,
    }


# ---------------------------------------------------------------------------
# Reference closed forms: the 18 entry classes of the source table.  Each
# line carries the triples the source groups together and the form as the
# source prints it, which is the only statement of its polynomial.
# ---------------------------------------------------------------------------

_FORM = re.compile(r"(?:(\d+)\*)?r\^\(3n-(\d+)\)\*\((.+)\)")
_TERM = re.compile(r"([+-]?)(\d*)(?:(r)(?:\^(\d+))?)?")


@dataclass(frozen=True)
class ReferenceForm:
    representative: tuple[int, int, int]
    triples: tuple[tuple[int, int, int], ...]
    source: str

    def poly(self, n_sites: int) -> LaurentPoly:
        """The printed form at n_sites: ``"0"``, or ``c*r^(3n-k)*(inner)``
        with an optional scale c and inner terms such as ``-3r`` or ``2r^4``."""
        if self.source == "0":
            return LaurentPoly()
        scale, lowered, inner = _FORM.fullmatch(self.source).groups()
        shift = 3 * n_sites - int(lowered)
        coeffs = {}
        # findall also yields the empty match at the end of ``inner``.
        for sign, digits, r, exp in _TERM.findall(inner):
            if digits or r:
                power = int(exp or 1) if r else 0
                coeffs[shift + power] = int(scale or 1) * int(sign + (digits or "1"))
        return LaurentPoly(coeffs)


def _perms(*triples: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    out: list[tuple[int, int, int]] = []
    for triple in triples:
        for perm in sorted({p for p in product(triple, repeat=3) if sorted(p) == sorted(triple)}):
            if perm not in out:
                out.append(perm)
    return tuple(out)


REFERENCE_FORMS: tuple[ReferenceForm, ...] = (
    ReferenceForm((3, 3, 3), ((3, 3, 3),) + _perms((3, 3, 0)), "r^(3n-6)*(r^2-3r+2)"),
    ReferenceForm((3, 3, 2), _perms((3, 3, 2), (3, 3, 1)), "3*r^(3n-6)*(r^2-3r+2)"),
    ReferenceForm((3, 2, 2), _perms((3, 2, 2)), "r^(3n-6)*(2r^3-15r+12)"),
    ReferenceForm((3, 2, 1), _perms((3, 2, 1)), "r^(3n-6)*(4r^3-9r^2-3r+6)"),
    ReferenceForm((3, 2, 0), _perms((3, 2, 0)), "r^(3n-5)*(2r^2-6r+3)"),
    ReferenceForm((3, 1, 1), _perms((3, 1, 1)), "r^(3n-5)*(r^3+r^2-10r+6)"),
    ReferenceForm((3, 1, 0), _perms((3, 1, 0)), "r^(3n-4)*(r^2-3r+2)"),
    ReferenceForm((3, 0, 0), _perms((3, 0, 0)), "0"),
    ReferenceForm((2, 2, 2), ((2, 2, 2),), "r^(3n-6)*(2r^4+6r^3-28r^2+8r+12)"),
    ReferenceForm((2, 2, 1), _perms((2, 2, 1)), "r^(3n-5)*(5r^3-7r^2-22r+24)"),
    ReferenceForm((2, 2, 0), _perms((2, 2, 0)), "r^(3n-5)*(4r^3-12r^2+6r+2)"),
    ReferenceForm((2, 1, 1), _perms((2, 1, 1)), "r^(3n-5)*(2r^4+3r^3-23r^2+14r+4)"),
    ReferenceForm((2, 1, 0), _perms((2, 1, 0)), "r^(3n-3)*(2r^2-6r+4)"),
    ReferenceForm((2, 0, 0), _perms((2, 0, 0)), "0"),
    ReferenceForm((1, 1, 1), ((1, 1, 1),), "r^(3n-3)*(r^3+3r^2-16r+12)"),
    ReferenceForm((1, 1, 0), _perms((1, 1, 0)), "r^(3n-2)*(r^2-3r+2)"),
    ReferenceForm((1, 0, 0), _perms((1, 0, 0)), "0"),
    ReferenceForm((0, 0, 0), ((0, 0, 0),), "0"),
)


def compare_reference(table: AlphaTable) -> dict:
    """Compare the computed table against the reference closed forms.

    Every class record carries the computed polynomial (common to the class
    when uniform), the reference form, and a match/mismatch verdict; a
    mismatch flags a possible erratum in the reference table.  The report
    also cross-checks the entries (``oracle_agreement``) against the
    source's construction: each of the 512 constraint matrices supported on
    the three core pairs, given as three columns that are each a subset of
    those pairs, contributes its ``matrix_coefficient``, the GHS_TERMS sum
    of r**(block count), to the entry of its row weights (how many columns
    hold each core pair).
    The table comes from the core's subset product under the staged
    ``ghs_combination``, so the two routes share ``block_count`` only.  The
    check against the definition itself is the brute-force enumerator in
    ``tests/brute_force.py``.
    """
    n = table.n_sites
    records = []
    matches = 0
    covered: list[tuple[int, int, int]] = []
    for form in REFERENCE_FORMS:
        covered.extend(form.triples)
        expected = form.poly(n)
        computed = {triple: table.entries[triple] for triple in form.triples}
        uniform = len(set(computed.values())) == 1
        ok = uniform and next(iter(computed.values())) == expected
        matches += ok
        record = {
            "entry": _triple_key(form.representative),
            "triples": [_triple_key(t) for t in form.triples],
            "class_uniform": uniform,
            "reference": form.source,
            "computed": next(iter(computed.values())).factored_str()
            if uniform
            else {_triple_key(t): p.factored_str() for t, p in computed.items()},
            "verdict": "match" if ok else "mismatch",
        }
        if not ok:
            record["note"] = "possible erratum in the reference closed form"
        records.append(record)

    core = ((1, 2), (1, 3), (2, 3))
    subsets = [tuple(compress(core, bits)) for bits in product((0, 1), repeat=3)]
    summed: dict[tuple[int, int, int], LaurentPoly] = {}
    for columns in product(subsets, repeat=3):
        key = tuple(sum(pair in column for column in columns) for pair in core)
        coeff = matrix_coefficient(n, columns)
        summed[key] = summed.get(key, LaurentPoly()) + coeff
    oracle_agreement = all(table.entries[t] == summed[t] for t in summed)
    coverage_ok = sorted(covered) == sorted(
        (x, y, z) for x in range(4) for y in range(4) for z in range(4)
    )
    return {
        "n_sites": n,
        "classes": records,
        "matches": matches,
        "mismatches": len(records) - matches,
        "coverage_complete": coverage_ok,
        "oracle_agreement": oracle_agreement,
    }


def _triple_key(triple: tuple[int, int, int]) -> str:
    return ",".join(str(w) for w in triple)


def table_export(table: AlphaTable, r_values: tuple[int, ...] = (2, 3, 4)) -> dict:
    """JSON-ready view of the table with factored forms and exact signs."""
    entries = {}
    for triple in sorted(table.entries):
        poly = table.entries[triple]
        signs = {}
        for r in r_values:
            value = poly.evaluate(r)
            signs[str(r)] = (value > 0) - (value < 0)
        entries[_triple_key(triple)] = {
            "polynomial": str(poly),
            "factored": poly.factored_str(),
            "signs": signs,
        }
    return {
        "n_sites": table.n_sites,
        "entries": entries,
        "symmetry_classes": [
            [_triple_key(t) for t in cls] for cls in table.symmetry_classes
        ],
    }
