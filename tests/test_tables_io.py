import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab as cl
from util import schrodinger_pair

cell_floats = st.floats(allow_nan=False, allow_infinity=False)
# cells are untyped in CSV, so a label that looks numeric would come back
# as a number; real label columns (kind, verdict, family) always start
# with a letter
safe_text = st.text(
    alphabet=st.characters(whitelist_categories=("L",), whitelist_characters="_"),
    min_size=1, max_size=12,
)


def test_result_table_round_trip_basic():
    table = cl.ResultTable(
        columns=["name", "value", "count"],
        rows=[["alpha", 0.1, 3], ["beta", -1.5e-17, -2], ["gamma", 2.0 ** -52, 0]],
        provenance={"seed": 7, "config_digest": "abc"},
    )
    again = cl.ResultTable.parse(table.emit())
    assert again == table
    assert again.rows[1][1] == -1.5e-17


def test_result_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        cl.ResultTable(columns=["a", "b"], rows=[[1.0]], provenance={})


def test_result_table_csv_file_round_trip(tmp_path):
    table = cl.ResultTable(["x"], [[1.25], [2.5]], {"seed": 1})
    path = tmp_path / "t.csv"
    table.to_csv(path)
    assert cl.ResultTable.from_csv(path) == table


@given(
    rows=st.lists(
        st.tuples(safe_text, cell_floats, st.integers(min_value=-10**9, max_value=10**9)),
        min_size=1, max_size=8,
    )
)
@settings(max_examples=80)
def test_result_table_round_trip_property(rows):
    table = cl.ResultTable(
        columns=["label", "value", "count"],
        rows=[list(r) for r in rows],
        provenance={"seed": 0},
    )
    assert cl.ResultTable.parse(table.emit()) == table


def test_file_digest_is_sha256(tmp_path):
    path = tmp_path / "blob.json"
    path.write_bytes(b"{}\n")
    assert cl.file_digest(path) == hashlib.sha256(b"{}\n").hexdigest()


def test_cocycle_file_round_trip(tmp_path):
    product, potentials = schrodinger_pair(energy=3.0)
    path = tmp_path / "tuple.json"
    cl.save_cocycle(product, path, potentials=potentials, energy=3.0)
    loaded = cl.load_cocycle(path)
    assert loaded.energy == 3.0
    assert loaded.digest == cl.file_digest(path)
    assert np.array_equal(loaded.product.angles, product.angles)
    assert np.array_equal(loaded.product.weights, product.weights)
    for a, b in zip(loaded.product.maps, product.maps):
        assert a.group_tag == b.group_tag
        assert np.array_equal(a.const, b.const)
        assert np.array_equal(a.cos_coeffs, b.cos_coeffs)
        assert np.array_equal(a.sin_coeffs, b.sin_coeffs)
    # byte-stable writes
    text = path.read_text()
    cl.save_cocycle(product, path, potentials=potentials, energy=3.0)
    assert path.read_text() == text


def test_maps_derived_from_potentials(tmp_path):
    product, potentials = schrodinger_pair(energy=2.0)
    path = tmp_path / "tuple.json"
    doc = cl.fileio.product_to_dict(product, potentials=potentials, energy=2.0)
    del doc["maps"]
    path.write_text(json.dumps(doc))
    loaded = cl.load_cocycle(path)
    ts = np.linspace(0, 1, 13, endpoint=False)
    for derived, original in zip(loaded.product.maps, product.maps):
        assert derived.group_tag == cl.SCHRODINGER
        assert np.max(np.abs(derived.eval_many(ts) - original.eval_many(ts))) <= 1e-15


def test_schrodinger_maps_must_match_potentials(tmp_path):
    product, potentials = schrodinger_pair(energy=3.0)
    path = tmp_path / "tuple.json"
    saved = cl.fileio.product_to_dict(product, potentials=potentials, energy=3.0)

    doc = json.loads(json.dumps(saved))
    doc["energy"] = 5.0
    path.write_text(json.dumps(doc))
    with pytest.raises(cl.ConfigError, match="map 0"):
        cl.load_cocycle(path)

    doc = json.loads(json.dumps(saved))
    doc["maps"][1]["coeffs"][0][2] += 1e-9
    path.write_text(json.dumps(doc))
    with pytest.raises(cl.ConfigError, match="map 1"):
        cl.load_cocycle(path)

    # trailing zero modes are not a mismatch
    doc = json.loads(json.dumps(saved))
    doc["maps"][1]["coeffs"] = [row + [0.0, 0.0] for row in doc["maps"][1]["coeffs"]]
    doc["maps"][1]["degree"] += 1
    path.write_text(json.dumps(doc))
    loaded = cl.load_cocycle(path)
    assert loaded.product.maps[1].potential.const == 3.0 - potentials[1].const


def test_save_rejects_potentials_the_loader_would_reject(tmp_path):
    # the maps are built at energy 3; without an energy the file reads as energy 0
    product, (u0, u1) = schrodinger_pair(energy=3.0)
    path = tmp_path / "tuple.json"
    with pytest.raises(cl.ConfigError, match="map 0"):
        cl.save_cocycle(product, path, potentials=[u0, u1])
    with pytest.raises(cl.ConfigError, match="potential"):
        cl.save_cocycle(product, path, potentials=[u0], energy=3.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(cl.ConfigError, match="energy"):
            cl.save_cocycle(product, path, energy=bad)
    assert not path.exists()

    cl.save_cocycle(product, path, potentials=[u0, u1], energy=3.0)
    loaded = cl.load_cocycle(path)
    assert loaded.energy == 3.0 and not hasattr(loaded, "potentials")
    again, energy = cl.fileio.product_from_dict(json.loads(path.read_text()))
    assert energy == 3.0 and again.n_symbols == 2


def test_weights_tolerance(tmp_path):
    product, potentials = schrodinger_pair()
    doc = cl.fileio.product_to_dict(product, potentials=potentials, energy=3.0)
    path = tmp_path / "tuple.json"

    doc["weights"] = [0.5 + 4e-10, 0.5]
    path.write_text(json.dumps(doc))
    loaded = cl.load_cocycle(path)
    assert abs(sum(loaded.product.weights) - 1.0) <= 1e-15

    doc["weights"] = [0.52, 0.5]
    path.write_text(json.dumps(doc))
    with pytest.raises(cl.ConfigError):
        cl.load_cocycle(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(cl.ConfigError):
        cl.load_cocycle(path)

    product, _ = schrodinger_pair()
    doc = cl.fileio.product_to_dict(product)
    doc["maps"][0]["group_tag"] = "sl3"
    path.write_text(json.dumps(doc))
    with pytest.raises(cl.ConfigError):
        cl.load_cocycle(path)

    doc = cl.fileio.product_to_dict(product)
    doc["maps"][0]["coeffs"] = doc["maps"][0]["coeffs"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(cl.ConfigError):
        cl.load_cocycle(path)

    with pytest.raises(cl.ConfigError):
        cl.load_cocycle(tmp_path / "missing.json")

    product, (u0, u1) = schrodinger_pair(energy=3.0)
    for key, value in (("potentials", 5), ("maps", 5), ("energy", None)):
        doc = cl.fileio.product_to_dict(product, potentials=[u0, u1], energy=3.0)
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(cl.ConfigError, match=key):
            cl.load_cocycle(path)

    # strings are not coerced, floats are not cut to integers, NaN is rejected
    for where, value, field_name in [
        (["d"], 2.7, "^d must"),
        (["k"], 1.5, "^k must"),
        (["d"], "2", "^d must"),
        (["angles"], ["0.6", "0.4"], "angles"),
        (["angles"], [float("nan"), 0.4], "angles"),
        (["maps", 0, "degree"], 2.5, "degree"),
        (["maps", 0, "group_tag"], ["SL2"], "group_tag"),
        (["maps", 0, "coeffs"], 5, "coeffs"),
        (["maps", 0, "coeffs", 0], None, "coeffs"),
    ]:
        doc = cl.fileio.product_to_dict(product)
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(cl.ConfigError, match=field_name):
            cl.load_cocycle(path)
