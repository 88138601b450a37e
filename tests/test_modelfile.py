"""Tests for model-file parsing, validation, and round-tripping."""

import json
import random
from fractions import Fraction

import pytest

from potts_ghs import (
    GhostWeightVector,
    ModelFileError,
    ModelSpec,
    dump_model,
    load_model,
    random_model,
    random_weights,
)
from potts_ghs.modelfile import parse_rational, rational_str


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# parse_rational / rational_str


def test_parse_rational_accepts_fraction_strings():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("  10/4 ") == Fraction(5, 2)
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational(5) == Fraction(5)


@pytest.mark.parametrize("bad", ["1.5", "3/0", "a/b", "1/2/3", "", "2.0", "1e3"])
def test_parse_rational_rejects_malformed_strings(bad):
    with pytest.raises(ModelFileError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", [1.5, True, False, None, [1, 2]])
def test_parse_rational_rejects_non_string_non_int(bad):
    with pytest.raises(ModelFileError):
        parse_rational(bad)


def test_rational_str_always_writes_denominator():
    assert rational_str(Fraction(3, 2)) == "3/2"
    assert rational_str(Fraction(4)) == "4/1"
    assert rational_str(Fraction(10, 4)) == "5/2"


def test_rational_str_parse_rational_round_trip():
    rng = random.Random("rational:0")
    for _ in range(50):
        q = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**4))
        assert parse_rational(rational_str(q)) == q


# ---------------------------------------------------------------------------
# load_model: exact-weights mode


def exact_doc():
    return {
        "n_sites": 3,
        "n_states": 4,
        "mode": "exact-weights",
        "couplings": [[1, 2, "3/2"], [1, 3, 2], [2, 3, "7/4"]],
        "fields": ["1/1", "5/4", "2/1"],
    }


def test_load_exact_weights(tmp_path):
    loaded = load_model(write_model(tmp_path, exact_doc()))
    assert isinstance(loaded, GhostWeightVector)
    assert loaded.n_sites == 3
    assert loaded.n_states == 4
    assert loaded.weight_of(1, 2) == Fraction(3, 2)
    assert loaded.weight_of(3, 1) == Fraction(2)
    assert loaded.weight_of(2, 3) == Fraction(7, 4)
    assert loaded.weight_of(0, 1) == Fraction(1)
    assert loaded.weight_of(0, 2) == Fraction(5, 4)
    assert loaded.weight_of(0, 3) == Fraction(2)


def test_load_exact_weights_missing_entries_default_to_one(tmp_path):
    doc = {"n_sites": 3, "n_states": 2, "mode": "exact-weights"}
    loaded = load_model(write_model(tmp_path, doc))
    assert loaded == GhostWeightVector.uniform(3, 2)


def test_load_exact_weights_rejects_floats(tmp_path):
    doc = exact_doc()
    doc["couplings"][0][2] = 1.5
    with pytest.raises(ModelFileError):
        load_model(write_model(tmp_path, doc))


def test_load_exact_weights_rejects_weight_below_one(tmp_path):
    doc = exact_doc()
    doc["couplings"][0][2] = "1/2"
    with pytest.raises(ModelFileError):
        load_model(write_model(tmp_path, doc))
    doc = exact_doc()
    doc["fields"][1] = "3/4"
    with pytest.raises(ModelFileError):
        load_model(write_model(tmp_path, doc))


# ---------------------------------------------------------------------------
# load_model: physical mode


def physical_doc():
    return {
        "n_sites": 3,
        "n_states": 3,
        "mode": "physical",
        "couplings": [[1, 2, 0.7], [2, 3, 1]],
        "fields": [0.3, 0.0, 0.1],
    }


def test_load_physical(tmp_path):
    loaded = load_model(write_model(tmp_path, physical_doc()))
    assert isinstance(loaded, ModelSpec)
    assert loaded.n_sites == 3
    assert loaded.n_states == 3
    assert loaded.coupling(1, 2) == pytest.approx(0.7)
    assert loaded.coupling(3, 2) == pytest.approx(1.0)
    assert loaded.coupling(1, 3) == 0.0
    assert loaded.fields == pytest.approx((0.3, 0.0, 0.1))


def test_load_physical_defaults_fields_to_zero(tmp_path):
    doc = physical_doc()
    del doc["fields"]
    loaded = load_model(write_model(tmp_path, doc))
    assert loaded.fields == (0.0, 0.0, 0.0)


def test_load_physical_rejects_negative_coupling(tmp_path):
    doc = physical_doc()
    doc["couplings"][0][2] = -0.5
    with pytest.raises(ModelFileError):
        load_model(write_model(tmp_path, doc))


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"]
)
def test_load_physical_rejects_non_finite_value(tmp_path, value):
    # json.dumps writes NaN and Infinity literals, which json.loads accepts.
    for place in ("coupling", "field"):
        doc = physical_doc()
        if place == "coupling":
            doc["couplings"][0][2] = value
        else:
            doc["fields"][0] = value
        with pytest.raises(ModelFileError, match="non-finite"):
            load_model(write_model(tmp_path, doc))


def test_load_physical_rejects_non_numeric_value(tmp_path):
    doc = physical_doc()
    doc["fields"][0] = "0.3"
    with pytest.raises(ModelFileError):
        load_model(write_model(tmp_path, doc))


# ---------------------------------------------------------------------------
# load_model: shared validation


@pytest.mark.parametrize("key", ["n_sites", "n_states", "mode"])
def test_load_rejects_missing_required_key(tmp_path, key):
    doc = exact_doc()
    del doc[key]
    with pytest.raises(ModelFileError, match=key):
        load_model(write_model(tmp_path, doc))


def test_load_rejects_unknown_mode(tmp_path):
    doc = exact_doc()
    doc["mode"] = "approximate"
    with pytest.raises(ModelFileError, match="mode"):
        load_model(write_model(tmp_path, doc))


def test_load_rejects_bad_site_counts(tmp_path):
    doc = exact_doc()
    doc["n_sites"] = 0
    with pytest.raises(ModelFileError):
        load_model(write_model(tmp_path, doc))
    doc = exact_doc()
    doc["n_states"] = 1
    with pytest.raises(ModelFileError):
        load_model(write_model(tmp_path, doc))
    doc = exact_doc()
    doc["n_sites"] = True
    with pytest.raises(ModelFileError):
        load_model(write_model(tmp_path, doc))


def test_load_rejects_out_of_range_pairs(tmp_path):
    for pair in ([0, 2], [1, 4], [2, 2]):
        doc = exact_doc()
        doc["couplings"] = [[pair[0], pair[1], "3/2"]]
        with pytest.raises(ModelFileError, match="range"):
            load_model(write_model(tmp_path, doc))


def test_load_rejects_duplicate_pairs(tmp_path):
    doc = exact_doc()
    doc["couplings"] = [[1, 2, "3/2"], [2, 1, "5/4"]]
    with pytest.raises(ModelFileError, match="duplicate"):
        load_model(write_model(tmp_path, doc))


def test_load_rejects_wrong_field_count(tmp_path):
    doc = exact_doc()
    doc["fields"] = ["1/1", "1/1"]
    with pytest.raises(ModelFileError, match="per site"):
        load_model(write_model(tmp_path, doc))


def test_load_rejects_malformed_coupling_entries(tmp_path):
    for entry in ([1, 2], [1, 2, "3/2", "extra"], "1,2,3/2", [1.0, 2, "3/2"]):
        doc = exact_doc()
        doc["couplings"] = [entry]
        with pytest.raises(ModelFileError):
            load_model(write_model(tmp_path, doc))


def test_load_rejects_bad_files(tmp_path):
    with pytest.raises(ModelFileError, match="read"):
        load_model(tmp_path / "missing.json")
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelFileError, match="JSON"):
        load_model(path)
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ModelFileError, match="object"):
        load_model(path)


# ---------------------------------------------------------------------------
# dump_model


def test_dump_weights_shape():
    weights = GhostWeightVector.from_pair_map(
        3, 3, {(1, 2): Fraction(3, 2), (0, 1): Fraction(2)}
    )
    doc = dump_model(weights)
    assert doc["mode"] == "exact-weights"
    assert doc["n_sites"] == 3
    assert doc["n_states"] == 3
    assert doc["couplings"] == [[1, 2, "3/2"], [1, 3, "1/1"], [2, 3, "1/1"]]
    assert doc["fields"] == ["2/1", "1/1", "1/1"]


def test_dump_weights_round_trips_through_load_model(tmp_path):
    rng = random.Random("dump:0")
    for k, n_sites in enumerate((3, 4, 5)):
        weights = random_weights(n_sites, 3, rng)
        path = write_model(tmp_path, dump_model(weights), f"rt{k}.json")
        assert load_model(path) == weights


def test_dump_weights_is_json_serializable():
    weights = GhostWeightVector.uniform(4, 5, Fraction(7, 3))
    text = json.dumps(dump_model(weights), sort_keys=True)
    assert "7/3" in text


def test_dump_model_round_trips_a_physical_model(tmp_path):
    # JSON writes a float by repr, so every coupling and field reads back
    # bit for bit, and the reloaded model is equal.
    rng = random.Random("dump:1")
    for k, n_sites in enumerate((3, 4, 5)):
        model = random_model(n_sites, 3, rng)
        doc = dump_model(model)
        assert doc["mode"] == "physical"
        path = write_model(tmp_path, doc, f"physical{k}.json")
        assert load_model(path) == model
