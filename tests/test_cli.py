"""End-to-end runs of every CLI subcommand against temporary configs."""

import inspect
import json
import math
import warnings

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab import certify, experiments
from cocyclelab.cli import main
from util import axis_pair, pipeline_tuple_d3, random_tuple, schrodinger_pair

# estimator sizes; certify and perturb-search read none of them
FAST = {"n_iter": 2000, "n_rep": 2}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _without_digest(path):
    """Lines of a CSV table apart from its config digest header."""
    return [line for line in path.read_text().splitlines()
            if not line.startswith("# config_digest")]


@pytest.fixture
def schro_setup(tmp_path):
    product, (u0, u1) = schrodinger_pair(energy=3.0)
    cocycle = tmp_path / "schro.json"
    cl.save_cocycle(product, cocycle, potentials=[u0, u1], energy=3.0)
    return tmp_path, cocycle


def test_version_and_usage_exits():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_lyapunov_table_and_provenance(schro_setup):
    tmp_path, cocycle = schro_setup
    out = tmp_path / "lyap.csv"
    cfg = write_json(tmp_path / "lyap.json",
                     {"kind": "lyapunov", "cocycle": "schro.json", "seed": 9,
                      "out": str(out), **FAST})
    assert main(["lyapunov", "--config", str(cfg)]) == 0
    table = cl.ResultTable.from_csv(out)
    assert table.columns == ["lambda_1", "lambda_2", "stderr_1", "stderr_2",
                             "n_iter", "n_rep", "sl2_sum"]
    (row,) = table.rows
    assert row[0] > 0.5 and row[0] + row[1] == 0.0
    assert table.provenance["config_digest"] == cl.file_digest(cfg)
    assert table.provenance["code_version"] == cl.__version__
    assert table.provenance["seed"] == 9


def test_reruns_are_byte_identical(schro_setup):
    tmp_path, cocycle = schro_setup
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    cfg = write_json(tmp_path / "lyap.json",
                     {"kind": "lyapunov", "cocycle": "schro.json", "seed": 9,
                      **FAST})
    assert main(["lyapunov", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["lyapunov", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    out_s = tmp_path / "s.csv"
    assert main(["lyapunov", "--config", str(cfg), "--out", str(out_s),
                 "--seed", "123"]) == 0
    assert out_s.read_bytes() != out_a.read_bytes()
    assert cl.ResultTable.from_csv(out_s).provenance["seed"] == 123


def test_stdout_when_no_out(schro_setup, capsys):
    tmp_path, _ = schro_setup
    cfg = write_json(tmp_path / "lyap.json",
                     {"kind": "lyapunov", "cocycle": "schro.json", "seed": 9,
                      **FAST})
    assert main(["lyapunov", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("#")
    assert "lambda_1" in captured.out


def test_certify_writes_certificate_json(schro_setup):
    tmp_path, cocycle = schro_setup
    out = tmp_path / "cert.csv"
    cfg = write_json(tmp_path / "cert.json",
                     {"kind": "certify", "cocycle": "schro.json", "seed": 9,
                      "out": str(out)})
    assert main(["certify", "--config", str(cfg)]) == 0
    table = cl.ResultTable.from_csv(out)
    assert [row[0] for row in table.rows] == ["WEAK_PINCH", "WEAK_TWIST"]
    assert all(row[1] == "PASS" for row in table.rows)
    for row, name in zip(table.rows, ["cert.weak_pinch.json", "cert.weak_twist.json"]):
        doc = json.loads((tmp_path / name).read_text())
        assert doc["kind"] == row[0]
        assert doc["margin"] == row[2]
        assert doc["seed"] == 9
        assert doc["input_digest"] == cl.file_digest(cocycle)


@pytest.mark.parametrize("scale", [1e80, 1e-80, 1e160, 1e-160], ids=str)
def test_certify_d2_handles_rescaled_tuples(tmp_path, scale):
    # at 1e+-160 WEAK_PINCH raised RenormalizationError and the command
    # exited 1 with no certificate
    product = random_tuple(2, seed=1)
    certs = {}
    for name, factor in (("plain", 1.0), ("scaled", scale)):
        cl.save_cocycle(cl.RandomProduct(product.angles, [factor * m for m in product.maps],
                                         product.weights), tmp_path / f"{name}.json")
        cfg = write_json(tmp_path / f"{name}_cfg.json",
                         {"kind": "certify", "cocycle": f"{name}.json", "seed": 3,
                          "out": str(tmp_path / f"{name}.csv")})
        assert main(["certify", "--config", str(cfg)]) == 0
        certs[name] = [json.loads((tmp_path / f"{name}.{kind}.json").read_text())
                       for kind in ("weak_pinch", "weak_twist")]
    (pinch, twist), (plain_pinch, plain_twist) = certs["scaled"], certs["plain"]
    assert twist["verdict"] == plain_twist["verdict"] == "PASS"
    assert twist["margin"] == plain_twist["margin"]
    got, want = pinch["diagnostics"]["lambda_top"], plain_pinch["diagnostics"]["lambda_top"]
    assert abs(got - want - np.log(scale)) <= 1e-9
    assert pinch["verdict"] == ("PASS" if scale > 1.0 else "INCONCLUSIVE")


@pytest.mark.parametrize("e0, e1", [(0, 350), (-300, 150), (0, -350), (0, -340), (40, -300)],
                         ids=str)
def test_certify_d3_handles_maps_at_widely_different_scales(tmp_path, e0, e1):
    # map 0 scaled by 2^e0 and map 1 by 2^e1: TWIST_D's minors overflowed
    # or underflowed, and the command exited 1 or warned
    product = pipeline_tuple_d3()
    maps = [math.ldexp(1.0, e0) * product.maps[0], math.ldexp(1.0, e1) * product.maps[1]]
    cl.save_cocycle(cl.RandomProduct(product.angles, maps), tmp_path / "wide.json")
    cfg = write_json(tmp_path / "cfg.json", {"kind": "certify", "cocycle": "wide.json",
                                             "seed": 3, "out": str(tmp_path / "wide.csv")})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["certify", "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "wide.twist_d.json").read_text())["verdict"] == "PASS"


def test_sweep_energy_rows(schro_setup):
    tmp_path, _ = schro_setup
    out = tmp_path / "sweep.csv"
    cfg = write_json(tmp_path / "sweep.json",
                     {"kind": "sweep-energy", "cocycle": "schro.json", "seed": 9,
                      "energies": {"min": 2.5, "max": 5.0, "steps": 3},
                      "out": str(out), **FAST})
    assert main(["sweep-energy", "--config", str(cfg)]) == 0
    table = cl.ResultTable.from_csv(out)
    assert table.columns == ["energy", "lambda_top", "stderr"]
    assert [row[0] for row in table.rows] == [2.5, 3.75, 5.0]
    tops = [row[1] for row in table.rows]
    assert all(top > 0.3 for top in tops)
    assert tops == sorted(tops)


def test_sweep_energy_does_not_need_potentials(tmp_path):
    """The same tuple sweeps to the same rows with or without potentials."""
    product, (u0, u1) = schrodinger_pair(energy=3.0)
    cl.save_cocycle(product, tmp_path / "with.json", potentials=[u0, u1], energy=3.0)
    cl.save_cocycle(product, tmp_path / "maps_only.json", energy=3.0)
    rows = []
    for name in ("with", "maps_only"):
        out = tmp_path / f"{name}.csv"
        cfg = write_json(tmp_path / f"{name}_sweep.json",
                         {"kind": "sweep-energy", "cocycle": f"{name}.json", "seed": 9,
                          "energies": {"min": 2.5, "max": 5.0, "steps": 3},
                          "out": str(out), **FAST})
        assert main(["sweep-energy", "--config", str(cfg)]) == 0
        rows.append(cl.ResultTable.from_csv(out).rows)
    assert rows[0] == rows[1]


def test_overflowing_energies_range_raises_without_warnings(schro_setup):
    tmp_path, _ = schro_setup
    cfg = write_json(tmp_path / "huge.json",
                     {"kind": "sweep-energy", "cocycle": "schro.json", "seed": 1,
                      "energies": {"min": -1e308, "max": 1e308, "steps": 3}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cl.ConfigError, match="energies range overflows"):
            experiments.load_experiment_config(cfg, "sweep-energy")


def test_continuity_epsilon_ladder(tmp_path):
    product = axis_pair(0.125)
    cl.save_cocycle(product, tmp_path / "pair.json")
    out = tmp_path / "cont.csv"
    cfg = write_json(tmp_path / "cont.json",
                     {"kind": "continuity", "cocycle": "pair.json", "seed": 4,
                      "epsilons": [0.1, 0.01],
                      "perturbation": {"coeffs": [[0.0, 0.3, 0.0],
                                                  [0.1, 0.0, 0.2],
                                                  [0.2, 0.1, 0.0],
                                                  [0.0, 0.0, 0.3]]},
                      "out": str(out), **FAST})
    assert main(["continuity", "--config", str(cfg)]) == 0
    table = cl.ResultTable.from_csv(out)
    assert table.columns == ["epsilon", "lambda_1", "lambda_2", "deviation",
                             "certified"]
    eps_col = [row[0] for row in table.rows]
    assert eps_col == [0.0, 0.1, 0.01]
    assert table.rows[0][3] == 0.0
    deviations = {row[0]: row[3] for row in table.rows}
    assert 0.0 < deviations[0.01] < deviations[0.1]
    # the axis pair passes WEAK_PINCH and WEAK_TWIST
    assert all(row[4] == 1 for row in table.rows)


def test_perturb_search_recovers_twisting(tmp_path):
    a0 = cl.TrigMatrixMap.constant(np.diag([2.0, 0.5]), group_tag=cl.SL2)
    product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.3183098861837907], [a0, a0])
    cl.save_cocycle(product, tmp_path / "pair_fail.json")
    out = tmp_path / "search.csv"
    cfg = write_json(tmp_path / "search.json",
                     {"kind": "perturb-search", "cocycle": "pair_fail.json",
                      "seed": 4, "budget": 0.05, "n_candidates": 6,
                      "out": str(out)})
    assert main(["perturb-search", "--config", str(cfg)]) == 0
    table = cl.ResultTable.from_csv(out)
    assert table.columns == ["candidate", "family", "parameter", "verdict",
                             "margin", "selected"]
    first = table.rows[0]
    assert first[0] == 0 and first[2] == 0.0 and first[3] == "FAIL"
    chosen = [row for row in table.rows if row[5] == 1]
    assert len(chosen) == 1
    assert chosen[0][3] == "PASS"
    assert chosen[0][1] == "rotation" and chosen[0][2] > 0.0


def test_perturb_search_keeps_passing_tuple(tmp_path):
    cl.save_cocycle(axis_pair(0.125), tmp_path / "pair.json")
    out = tmp_path / "search.csv"
    cfg = write_json(tmp_path / "search.json",
                     {"kind": "perturb-search", "cocycle": "pair.json",
                      "seed": 4, "budget": 0.05, "n_candidates": 6,
                      "out": str(out)})
    assert main(["perturb-search", "--config", str(cfg)]) == 0
    table = cl.ResultTable.from_csv(out)
    chosen = [row for row in table.rows if row[5] == 1]
    assert len(chosen) == 1
    assert chosen[0][0] == 0 and chosen[0][2] == 0.0 and chosen[0][3] == "PASS"


def _perturb_search_rows(tmp_path, product, **knobs):
    cl.save_cocycle(product, tmp_path / "tuple.json")
    out = tmp_path / "search.csv"
    cfg = write_json(tmp_path / "search.json",
                     {"kind": "perturb-search", "cocycle": "tuple.json", "seed": 4,
                      "out": str(out), **knobs})
    assert main(["perturb-search", "--config", str(cfg)]) == 0
    return cl.ResultTable.from_csv(out).rows


def test_perturb_search_rescale_ladder_repairs_pinching(tmp_path):
    # exponents 3, 2, 1, 0 collide as 3 + 0 = 2 + 1; the first rung of the
    # rescale direction 2^-i already separates every equal-size subset sum
    rng = np.random.default_rng(17)
    a0 = cl.TrigMatrixMap.constant(np.diag(np.exp([3.0, 2.0, 1.0, 0.0])),
                                   group_tag=cl.DIAGONAL)
    a1 = cl.TrigMatrixMap(np.eye(4) + 0.25 * rng.standard_normal((4, 4)),
                          0.12 * rng.standard_normal((1, 4, 4)),
                          0.12 * rng.standard_normal((1, 4, 4)))
    product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.41421356237309515], [a0, a1])
    rows = _perturb_search_rows(tmp_path, product, budget=0.1, n_candidates=4)
    assert rows[0][3] == "FAIL" and rows[0][5] == 0
    assert rows[1:] == [[1, "diagonal_rescale", 0.1 / 2 ** 3, "PASS", rows[1][4], 1]]


def test_perturb_search_offers_no_rescale_for_twisting_d3(tmp_path):
    # a diagonal holonomy has vanishing off-diagonal minors, and rescaling
    # map 0 multiplies every minor by a constant, so nothing is searched
    a0 = cl.TrigMatrixMap.constant(np.diag([4.0, 2.0, 1.0]), group_tag=cl.DIAGONAL)
    a1 = cl.TrigMatrixMap(np.diag([1.5, 1.0, 0.8]), np.diag([0.3, 0.0, 0.1])[None],
                          np.diag([0.0, 0.2, 0.0])[None], group_tag=cl.DIAGONAL)
    product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.41421356237309515], [a0, a1])
    rows = _perturb_search_rows(tmp_path, product)
    assert rows == [[0, "none", 0.0, "FAIL", rows[0][4], 0]]
    assert rows[0][4] == -12.0


def test_perturb_search_offers_no_rescale_when_pinching_and_twisting_fail(tmp_path):
    # exponents 3, 2, 1, 0 collide as 3 + 0 = 2 + 1, and the diagonal
    # holonomy has vanishing off-diagonal minors; a rescale of map 0 could
    # repair PINCH_D but never TWIST_D, so nothing is searched
    a0 = cl.TrigMatrixMap.constant(np.diag(np.exp([3.0, 2.0, 1.0, 0.0])),
                                   group_tag=cl.DIAGONAL)
    a1 = cl.TrigMatrixMap(np.diag([1.5, 1.0, 0.8, 1.2]),
                          np.diag([0.3, 0.0, 0.1, 0.2])[None],
                          np.diag([0.0, 0.2, 0.0, 0.1])[None], group_tag=cl.DIAGONAL)
    product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.41421356237309515], [a0, a1])
    certs = cl.certification_pipeline(product)
    assert [cert.verdict for cert in certs] == ["FAIL", "FAIL"]
    rows = _perturb_search_rows(tmp_path, product)
    # the margin column is TWIST_D's: 54 of the 69 minors vanish identically
    assert rows == [[0, "none", 0.0, "FAIL", -54.0, 0]]


def test_error_exits(tmp_path, capsys):
    assert main(["lyapunov", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err

    # an invalid tuple file: its maps are built at energy 3, but it names no
    # energy, so its potentials read as energy 0; the errors below come first
    product, (u0, u1) = schrodinger_pair()
    doc = cl.fileio.product_to_dict(product)
    doc["potentials"] = [u.to_rows()[0] for u in (u0, u1)]
    write_json(tmp_path / "schro.json", doc)
    with pytest.raises(cl.ConfigError, match="map 0"):
        cl.load_cocycle(tmp_path / "schro.json")
    cfg = write_json(tmp_path / "kind.json",
                     {"kind": "lyapunov", "cocycle": "schro.json", "seed": 1})
    assert main(["certify", "--config", str(cfg)]) == 1
    assert "kind" in capsys.readouterr().err

    cfg = write_json(tmp_path / "noseed.json",
                     {"kind": "lyapunov", "cocycle": "schro.json"})
    assert main(["lyapunov", "--config", str(cfg)]) == 1
    assert "seed" in capsys.readouterr().err

    cfg = write_json(tmp_path / "badknob.json",
                     {"kind": "lyapunov", "cocycle": "schro.json", "seed": 1,
                      "n_iter": -3})
    assert main(["lyapunov", "--config", str(cfg)]) == 1
    assert "n_iter" in capsys.readouterr().err

    cl.save_cocycle(product, tmp_path / "sweep_pair.json", potentials=[u0, u1],
                    energy=3.0)
    cfg = write_json(tmp_path / "badenergies.json",
                     {"kind": "sweep-energy", "cocycle": "sweep_pair.json", "seed": 1,
                      "energies": {"min": None, "max": 1, "steps": 2}})
    assert main(["sweep-energy", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "energies min" in err

    doc = cl.fileio.product_to_dict(product)
    doc["maps"][0]["group_tag"] = ["SL2"]
    write_json(tmp_path / "listtag.json", doc)
    cfg = write_json(tmp_path / "listtag_cfg.json",
                     {"kind": "lyapunov", "cocycle": "listtag.json", "seed": 1})
    assert main(["lyapunov", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "group_tag" in err


def test_malformed_continuity_fields_exit_cleanly(tmp_path, capsys):
    cl.save_cocycle(axis_pair(0.125), tmp_path / "pair.json")
    base = {"kind": "continuity", "cocycle": "pair.json", "seed": 4, **FAST}

    cfg = write_json(tmp_path / "eps.json",
                     {**base, "epsilons": 0.1,
                      "perturbation": {"coeffs": [[0.1]] * 4}})
    assert main(["continuity", "--config", str(cfg)]) == 1
    assert "epsilons" in capsys.readouterr().err

    cfg = write_json(tmp_path / "coeffs.json",
                     {**base, "perturbation": {"coeffs": 5}})
    assert main(["continuity", "--config", str(cfg)]) == 1
    assert "perturbation" in capsys.readouterr().err


def test_schrodinger_search_family_does_not_depend_on_the_file(tmp_path):
    """A SCHRODINGER tuple saved with or without potentials searches potentials."""
    product, (u0, u1) = schrodinger_pair(energy=3.0)
    cl.save_cocycle(product, tmp_path / "with.json", potentials=[u0, u1], energy=3.0)
    cl.save_cocycle(product, tmp_path / "maps_only.json")
    loaded = [cl.load_cocycle(tmp_path / name).product
              for name in ("with.json", "maps_only.json")]
    assert loaded[0].maps[1].potential.to_rows() == loaded[1].maps[1].potential.to_rows()
    failing = cl.Certificate(kind="WEAK_TWIST", verdict="FAIL", margin=-0.1)
    families = [[family for family, _, _ in
                 experiments._search_candidates(p, [failing], 0.1, 2)]
                for p in loaded]
    assert families[0] == families[1]
    assert set(families[0]) == {"potential_shift", "potential_bump"}


def test_parallel_is_retired(schro_setup, capsys):
    """--parallel is a usage error; a config still carrying the key loads."""
    tmp_path, _ = schro_setup
    doc = {"kind": "lyapunov", "cocycle": "schro.json", "seed": 9, **FAST}
    cfg = write_json(tmp_path / "plain.json", doc)
    with pytest.raises(SystemExit) as info:
        main(["lyapunov", "--config", str(cfg), "--parallel", "2"])
    assert info.value.code == 2
    capsys.readouterr()

    old_cfg = write_json(tmp_path / "old.json", {**doc, "parallel": 2})
    out_plain = tmp_path / "plain.csv"
    out_old = tmp_path / "old.csv"
    assert main(["lyapunov", "--config", str(cfg), "--out", str(out_plain)]) == 0
    assert main(["lyapunov", "--config", str(old_cfg), "--out", str(out_old)]) == 0

    assert _without_digest(out_old) == _without_digest(out_plain)
    assert (cl.ResultTable.from_csv(out_old).provenance["config_digest"]
            == cl.file_digest(old_cfg))


def test_qr_period_is_retired(schro_setup, capsys):
    """The estimators set their own renormalization period; a config still
    carrying qr_period loads silently and writes the same table."""
    tmp_path, _ = schro_setup
    doc = {"kind": "lyapunov", "cocycle": "schro.json", "seed": 9, **FAST}
    outs = []
    for name, cfg_doc in [("plain", doc), ("old", {**doc, "qr_period": 5})]:
        cfg = write_json(tmp_path / f"{name}.json", cfg_doc)
        outs.append(tmp_path / f"{name}.csv")
        assert main(["lyapunov", "--config", str(cfg), "--out", str(outs[-1])]) == 0

    assert _without_digest(outs[1]) == _without_digest(outs[0])
    assert capsys.readouterr().err == ""


def test_unread_config_keys_warn_on_stderr(schro_setup, capsys):
    """A key no experiment kind reads, such as a misspelt knob, gets one
    stderr line and changes nothing; retired keys and other kinds' keys are
    silent."""
    tmp_path, _ = schro_setup
    doc = {"kind": "lyapunov", "cocycle": "schro.json", "seed": 9, **FAST}
    quiet = {**doc, "energies": [3.0], "epsilons": [0.1],
             **{key: 1 for key in experiments.RETIRED_KEYS}}
    outs = []
    for name, cfg_doc in [("plain", doc), ("quiet", quiet), ("typo", {**doc, "n_iters": 50})]:
        cfg = write_json(tmp_path / f"{name}.json", cfg_doc)
        outs.append(tmp_path / f"{name}.csv")
        assert main(["lyapunov", "--config", str(cfg), "--out", str(outs[-1])]) == 0
        err = capsys.readouterr().err
        if name == "typo":
            assert err.splitlines() == [
                "warning: config key 'n_iters' is read by no experiment kind; ignored"]
        else:
            assert err == ""

    assert _without_digest(outs[1]) == _without_digest(outs[0])
    assert _without_digest(outs[2]) == _without_digest(outs[0])


def test_certify_base_is_retired(tmp_path):
    """continuity always certifies the base tuple; a config still carrying
    certify_base loads and writes the same table."""
    cl.save_cocycle(axis_pair(0.125), tmp_path / "pair.json")
    doc = {"kind": "continuity", "cocycle": "pair.json", "seed": 4,
           "epsilons": [0.1], "perturbation": {"coeffs": [[0.0, 0.3, 0.0]] * 4},
           **FAST}
    cfg = write_json(tmp_path / "plain.json", doc)
    old_cfg = write_json(tmp_path / "old.json", {**doc, "certify_base": False})
    assert not hasattr(experiments.load_experiment_config(old_cfg, "continuity"),
                       "certify_base")
    out_plain = tmp_path / "plain.csv"
    out_old = tmp_path / "old.csv"
    assert main(["continuity", "--config", str(cfg), "--out", str(out_plain)]) == 0
    assert main(["continuity", "--config", str(old_cfg), "--out", str(out_old)]) == 0

    assert _without_digest(out_old) == _without_digest(out_plain)
    assert [row[-1] for row in cl.ResultTable.from_csv(out_old).rows] == [1, 1]


def test_config_defaults_are_the_estimator_defaults():
    # the estimator knobs default to the WEAK_PINCH run, defined once
    assert experiments._INT_KNOBS == {"n_iter": certify.PINCH_N_ITER,
                                      "n_rep": certify.PINCH_N_REP, "n_candidates": 8}
    # the certifiers take the tuple and the seed: sizes, resolutions and
    # thresholds are module constants, not parameters
    for fn in (cl.weakly_pinching, cl.weakly_twisting):
        params = inspect.signature(fn).parameters
        assert list(params) == ["product", "seed"], fn.__name__
    assert list(inspect.signature(cl.certification_pipeline).parameters) == [
        "product", "seed"]
    assert list(inspect.signature(cl.pinching_d).parameters) == ["exponents"]
    for fn in (cl.oseledets_directions, cl.oseledets_field, cl.twisting_d,
               cl.log_integrability):
        params = inspect.signature(fn).parameters
        assert "n_pullback" not in params and "grid_n" not in params, fn.__name__


@pytest.mark.parametrize("make_product", [lambda: schrodinger_pair()[0],
                                          pipeline_tuple_d3], ids=["d2", "d3"])
def test_retired_threshold_keys_change_nothing(tmp_path, make_product):
    """sep_tol, frac_threshold, direction_tol, rel_gap, n_pullback, grid_n and
    n_samples are constants now, and zero_tol gave way to a zero threshold
    relative to each minor's scale."""
    cl.save_cocycle(make_product(), tmp_path / "tuple.json")
    doc = {"kind": "certify", "cocycle": "tuple.json", "seed": 9}
    retired = {"sep_tol": 0.2, "frac_threshold": 0.5, "direction_tol": 1e-30,
               "rel_gap": 0.5, "zero_tol": 1e-30, "grid_n": 3, "n_pullback": 1,
               "n_samples": 1}
    outs = []
    for name, cfg_doc in [("plain", doc), ("old", {**doc, **retired})]:
        cfg = write_json(tmp_path / f"{name}.json", cfg_doc)
        outs.append(tmp_path / f"{name}.csv")
        assert main(["certify", "--config", str(cfg), "--out", str(outs[-1])]) == 0

    assert _without_digest(outs[1]) == _without_digest(outs[0])
    kinds = [row[0].lower() for row in cl.ResultTable.from_csv(outs[0]).rows]
    for kind in kinds:
        assert (outs[1].with_suffix(f".{kind}.json").read_bytes()
                == outs[0].with_suffix(f".{kind}.json").read_bytes())


def test_certify_ignores_the_estimator_sizes(tmp_path):
    """The same tuple and seed get the same certificates whatever sizes the
    config sets.  The WEAK_PINCH JSON carries ``lambda_top``, which a run of
    20000 x 6 steps moves, so a size that reached the certifier would show
    in the bytes compared here."""
    cl.save_cocycle(schrodinger_pair(2.0)[0], tmp_path / "tuple.json")
    doc = {"kind": "certify", "cocycle": "tuple.json", "seed": 0}
    outs = []
    for name, cfg_doc in [("plain", doc),
                          ("sized", {**doc, "n_iter": 20000, "n_rep": 6, "n_samples": 12})]:
        cfg = write_json(tmp_path / f"{name}.json", cfg_doc)
        outs.append(tmp_path / f"{name}.csv")
        assert main(["certify", "--config", str(cfg), "--out", str(outs[-1])]) == 0

    assert _without_digest(outs[1]) == _without_digest(outs[0])
    for kind in ("weak_pinch", "weak_twist"):
        assert (outs[1].with_suffix(f".{kind}.json").read_bytes()
                == outs[0].with_suffix(f".{kind}.json").read_bytes())


def test_certify_rejects_non_diagonal_higher_dim(tmp_path, capsys):
    rng = np.random.default_rng(0)
    maps = [cl.TrigMatrixMap(2.0 * np.eye(3) + 0.1 * rng.standard_normal((3, 3)),
                             0.05 * rng.standard_normal((1, 3, 3)),
                             0.05 * rng.standard_normal((1, 3, 3)))
            for _ in range(2)]
    product = cl.RandomProduct([cl.GOLDEN_MEAN, 0.41421356237309515], maps)
    cl.save_cocycle(product, tmp_path / "triple.json")
    cfg = write_json(tmp_path / "cert3.json",
                     {"kind": "certify", "cocycle": "triple.json", "seed": 1})
    assert main(["certify", "--config", str(cfg)]) == 1
    assert "diagonal" in capsys.readouterr().err



@pytest.fixture
def line_pair(tmp_path):
    """A two-symbol d = 1 diagonal tuple, which no certifier supports."""
    maps = [cl.TrigMatrixMap.from_rows((1, 1), [row], group_tag=cl.DIAGONAL)
            for row in ([2.0, 1.0, 0.0], [0.5, 0.0, 0.25])]
    cl.save_cocycle(cl.RandomProduct([cl.GOLDEN_MEAN, 0.41421356237309515], maps),
                    tmp_path / "line.json")
    return tmp_path


def test_certify_one_dimensional_tuple_names_d(line_pair, capsys):
    cfg = write_json(line_pair / "cert1.json",
                     {"kind": "certify", "cocycle": "line.json", "seed": 1})
    assert main(["certify", "--config", str(cfg)]) == 1
    assert "certification needs d >= 2, got d = 1" in capsys.readouterr().err


def test_continuity_one_dimensional_tuple_is_uncertified(line_pair):
    out = line_pair / "cont.csv"
    cfg = write_json(line_pair / "cont1.json",
                     {"kind": "continuity", "cocycle": "line.json", "seed": 1,
                      "epsilons": [0.1], "perturbation": {"coeffs": [[0.0, 0.2, 0.0]]},
                      "out": str(out), **FAST})
    assert main(["continuity", "--config", str(cfg)]) == 0
    table = cl.ResultTable.from_csv(out)
    assert table.columns == ["epsilon", "lambda_1", "deviation", "certified"]
    assert [row[-1] for row in table.rows] == [0, 0]
