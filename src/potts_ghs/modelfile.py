"""Reading and writing model description files.

A model file is JSON with keys ``n_sites``, ``n_states``, ``mode``
("exact-weights" or "physical"), ``couplings`` (list of [i, j, value]) and
``fields`` (list of per-site values).  In exact-weights mode the values are
pair weights t >= 1 written as exact rationals — "p/q" strings or JSON
integers; any float is rejected.  In physical mode the values are real
couplings J >= 0 and fields B >= 0, and finite JSON numbers are accepted.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from .model import GhostWeightVector, ModelSpec, pair_order

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class ModelFileError(ValueError):
    """A model file failed validation."""


def parse_rational(value) -> Fraction:
    """Exact rational from a JSON value: "p/q" string, "p" string, or int."""
    if isinstance(value, bool):
        raise ModelFileError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ModelFileError(f"malformed rational {value!r} (want 'p/q' or 'p')")
        num, _, den = text.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError as exc:  # past the interpreter's int digit limit
            raise ModelFileError(
                f"rational of {len(text)} characters has too many digits to read"
            ) from exc
        if den == 0:
            raise ModelFileError(f"zero denominator in {value!r}")
        return Fraction(num, den)
    if isinstance(value, float):
        raise ModelFileError(
            f"float {value!r} not allowed in exact-weights mode; write 'p/q'"
        )
    raise ModelFileError(f"not a rational: {value!r}")


def _parse_weight(value, where: str) -> Fraction:
    """``parse_rational`` whose errors name ``where`` the weight sits."""
    try:
        return parse_rational(value)
    except ModelFileError as exc:
        raise ModelFileError(f"weight for {where}: {exc}") from exc


def rational_str(q: Fraction) -> str:
    """Canonical "p/q" form (denominator always written)."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _parse_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFileError(f"not a number: {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ModelFileError(f"non-finite value {number!r} in a physical model")
    return number


def load_model(path: str | Path) -> GhostWeightVector | ModelSpec:
    """Parse a model file into an exact weight vector or a physical model."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read model file: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ModelFileError(f"invalid JSON in model file: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ModelFileError("a model file integer has too many digits") from exc
    if not isinstance(data, dict):
        raise ModelFileError("model file must contain a JSON object")

    for key in ("n_sites", "n_states", "mode"):
        if key not in data:
            raise ModelFileError(f"missing key {key!r}")
    n_sites = data["n_sites"]
    n_states = data["n_states"]
    mode = data["mode"]
    if not isinstance(n_sites, int) or isinstance(n_sites, bool) or n_sites < 1:
        raise ModelFileError("n_sites must be a positive integer")
    if not isinstance(n_states, int) or isinstance(n_states, bool) or n_states < 2:
        raise ModelFileError("n_states must be an integer >= 2")
    couplings = data.get("couplings", [])
    fields = data.get("fields", [])
    if not isinstance(couplings, list) or not isinstance(fields, list):
        raise ModelFileError("couplings and fields must be lists")
    if fields and len(fields) != n_sites:
        raise ModelFileError("fields must have one entry per site")

    entries = []
    for item in couplings:
        if not (isinstance(item, list) and len(item) == 3):
            raise ModelFileError(f"coupling entry {item!r} must be [i, j, value]")
        i, j, val = item
        if not (isinstance(i, int) and isinstance(j, int)) or isinstance(
            i, bool
        ) or isinstance(j, bool):
            raise ModelFileError(f"coupling sites in {item!r} must be integers")
        if not (1 <= i <= n_sites and 1 <= j <= n_sites) or i == j:
            raise ModelFileError(f"coupling pair ({i}, {j}) out of range")
        entries.append((min(i, j), max(i, j), val))
    seen = set()
    for i, j, _ in entries:
        if (i, j) in seen:
            raise ModelFileError(f"duplicate coupling for pair ({i}, {j})")
        seen.add((i, j))

    if mode == "exact-weights":
        pair_map: dict[tuple[int, int], Fraction] = {}
        for i, j, val in entries:
            t = _parse_weight(val, f"pair ({i}, {j})")
            if t < 1:
                raise ModelFileError(f"weight {val!r} for pair ({i}, {j}) is < 1")
            pair_map[(i, j)] = t
        for site, val in enumerate(fields, start=1):
            t = _parse_weight(val, f"the field of site {site}")
            if t < 1:
                raise ModelFileError(f"field weight {val!r} for site {site} is < 1")
            pair_map[(0, site)] = t
        try:
            return GhostWeightVector.from_pair_map(n_sites, n_states, pair_map)
        except ValueError as exc:
            raise ModelFileError(str(exc)) from exc
    if mode == "physical":
        coupling_map = {}
        for i, j, val in entries:
            coupling_map[(i, j)] = _parse_number(val)
        field_vals = tuple(_parse_number(v) for v in fields)
        try:
            return ModelSpec(
                n_sites=n_sites,
                n_states=n_states,
                couplings=coupling_map,
                fields=field_vals,
            )
        except ValueError as exc:
            raise ModelFileError(str(exc)) from exc
    raise ModelFileError(f"unknown mode {mode!r} (want 'exact-weights' or 'physical')")


def dump_model(instance: GhostWeightVector | ModelSpec) -> dict:
    """JSON-ready model file of an instance, which load_model reads back:
    every pair weight of exact weights as "p/q", and the stored couplings
    and fields of a physical model as floats, which JSON keeps exactly."""
    if isinstance(instance, ModelSpec):
        mode = "physical"
        pairs = sorted(instance.couplings.items())
        couplings = [[i, j, value] for (i, j), value in pairs]
        fields = list(instance.fields)
    else:
        mode = "exact-weights"
        couplings, fields = [], [rational_str(Fraction(1))] * instance.n_sites
        for (i, j), t in zip(pair_order(instance.n_sites).pairs, instance.weights):
            if i == 0:
                fields[j - 1] = rational_str(t)
            else:
                couplings.append([i, j, rational_str(t)])
    return {
        "n_sites": instance.n_sites,
        "n_states": instance.n_states,
        "mode": mode,
        "couplings": couplings,
        "fields": fields,
    }
