"""End-to-end command line workflows in temporary directories."""
import json
import warnings

import numpy as np
import pytest

from csmooth.cli import _REPLAYED, main
from csmooth.dataio import read_field_csv, write_field_csv
from csmooth.domain import SpatialField, make_domain


def run(args):
    return main([str(a) for a in args])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "csmooth" in capsys.readouterr().out


@pytest.fixture()
def workflow_dir(tmp_path):
    """synth -> stations -> aggregate, the shared front half of the pipeline."""
    synth = tmp_path / "synth"
    assert run(["synth", "--rows", 8, "--cols", 8, "--bumps", 2,
                "--seed", 5, "--out", synth]) == 0
    stations = tmp_path / "stations"
    assert run(["stations", "--field", synth / "truth.csv",
                "--stations", 5, "--seed", 1, "--out", stations]) == 0
    agg = tmp_path / "agg"
    assert run(["aggregate", "--field", synth / "truth.csv",
                "--stations-csv", stations / "stations.csv", "--out", agg]) == 0
    return tmp_path


def test_full_pipeline(workflow_dir):
    rec = workflow_dir / "rec"
    code = run([
        "recover",
        "--domain", workflow_dir / "synth" / "truth.csv",
        "--stations-csv", workflow_dir / "stations" / "stations.csv",
        "--aggregates", workflow_dir / "agg" / "aggregates.csv",
        "--method", "pe", "--method", "css",
        "--out", rec,
    ])
    assert code == 0
    assert (rec / "estimate_pe.csv").exists()
    assert (rec / "estimate_css.csv").exists()
    assert (rec / "diagnostics_css.csv").exists()
    manifest = json.loads((rec / "manifest.json").read_text())
    assert manifest["command"] == "recover"
    assert manifest["results"]["css"]["converged"] in (True, False)
    assert manifest["results"]["pe"]["iterations"] is None
    assert manifest["rng"] == "numpy-pcg64"

    ev = workflow_dir / "eval"
    code = run([
        "evaluate",
        "--truth", workflow_dir / "synth" / "truth.csv",
        "--estimate", rec / "estimate_pe.csv",
        "--estimate", f"constrained={rec / 'estimate_css.csv'}",
        "--out", ev,
    ])
    assert code == 0
    assert (ev / "report.csv").exists()
    assert (ev / "cdf_pe.csv").exists()
    assert (ev / "cdf_constrained.csv").exists()

    plots = workflow_dir / "plots"
    code = run([
        "plot",
        "--field", rec / "estimate_css.csv",
        "--cdf", ev / "cdf_pe.csv",
        "--cdf", ev / "cdf_constrained.csv",
        "--report", ev / "report.csv",
        "--out", plots,
    ])
    assert code == 0
    for name in ("field.svg", "cdf.svg", "report.svg"):
        assert (plots / name).exists()


def test_recover_truth_mode_and_determinism(workflow_dir):
    args = ["recover", "--truth", workflow_dir / "synth" / "truth.csv",
            "--stations", 5, "--seed", 9, "--method", "css"]
    rec_a = workflow_dir / "rec_a"
    rec_b = workflow_dir / "rec_b"
    assert run(args + ["--out", rec_a]) == 0
    assert run(args + ["--out", rec_b]) == 0
    assert (rec_a / "estimate_css.csv").read_bytes() == (rec_b / "estimate_css.csv").read_bytes()
    assert (rec_a / "diagnostics_css.csv").read_bytes() == (rec_b / "diagnostics_css.csv").read_bytes()


def test_synth_determinism_and_manifest_replay(tmp_path):
    args = ["synth", "--rows", 6, "--cols", 5, "--bumps", 3, "--seed", 11]
    assert run(args + ["--out", tmp_path / "one"]) == 0
    assert run(args + ["--out", tmp_path / "two"]) == 0
    truth_one = (tmp_path / "one" / "truth.csv").read_bytes()
    assert truth_one == (tmp_path / "two" / "truth.csv").read_bytes()

    assert run(["synth", "--from-manifest", tmp_path / "one" / "manifest.json",
                "--out", tmp_path / "replay"]) == 0
    assert (tmp_path / "replay" / "truth.csv").read_bytes() == truth_one
    replay = json.loads((tmp_path / "replay" / "manifest.json").read_text())
    original = json.loads((tmp_path / "one" / "manifest.json").read_text())
    assert replay == original


def test_recover_manifest_replay(workflow_dir):
    rec = workflow_dir / "rec"
    assert run([
        "recover",
        "--domain", workflow_dir / "synth" / "truth.csv",
        "--stations-csv", workflow_dir / "stations" / "stations.csv",
        "--aggregates", workflow_dir / "agg" / "aggregates.csv",
        "--method", "css", "--out", rec,
    ]) == 0
    replay = workflow_dir / "rec_replay"
    assert run(["recover", "--from-manifest", rec / "manifest.json",
                "--out", replay]) == 0
    assert (replay / "estimate_css.csv").read_bytes() == (rec / "estimate_css.csv").read_bytes()


@pytest.mark.parametrize("command,made", [("stations", "stations"), ("aggregate", "agg"),
                                          ("evaluate", "ev")])
def test_manifest_replay_rewrites_the_same_csvs(workflow_dir, command, made):
    if command == "evaluate":
        truth = workflow_dir / "synth" / "truth.csv"
        assert run(["evaluate", "--truth", truth, "--estimate", truth,
                    "--estimate", f"copy={truth}", "--out", workflow_dir / made]) == 0
    replay = workflow_dir / "replay"
    assert run([command, "--from-manifest", workflow_dir / made / "manifest.json",
                "--out", replay]) == 0
    written = sorted(p.name for p in (workflow_dir / made).glob("*.csv"))
    assert written and written == sorted(p.name for p in replay.glob("*.csv"))
    for name in written:
        assert (replay / name).read_bytes() == (workflow_dir / made / name).read_bytes(), name


def test_file_mode_manifest_records_no_seed(workflow_dir):
    rec = workflow_dir / "rec"
    assert run([
        "recover",
        "--domain", workflow_dir / "synth" / "truth.csv",
        "--stations-csv", workflow_dir / "stations" / "stations.csv",
        "--aggregates", workflow_dir / "agg" / "aggregates.csv",
        "--method", "pe", "--out", rec,
    ]) == 0
    manifest = json.loads((rec / "manifest.json").read_text())
    assert "seed" not in manifest["params"]
    # a manifest written when file mode still recorded the unused seed replays
    manifest["params"]["seed"] = 7
    old = workflow_dir / "old.json"
    old.write_text(json.dumps(manifest))
    assert run(["recover", "--from-manifest", old, "--out", workflow_dir / "replay"]) == 0
    assert ((workflow_dir / "replay" / "estimate_pe.csv").read_bytes()
            == (rec / "estimate_pe.csv").read_bytes())
    # --truth mode records the seed it sampled with, 0 unless given
    truth_mode = workflow_dir / "truth_mode"
    assert run(["recover", "--truth", workflow_dir / "synth" / "truth.csv", "--stations", 3,
                "--method", "pe", "--out", truth_mode]) == 0
    assert json.loads((truth_mode / "manifest.json").read_text())["params"]["seed"] == 0


def test_fresh_manifests_hold_exactly_the_replayed_keys(workflow_dir):
    truth = workflow_dir / "synth" / "truth.csv"
    from_files = ["--domain", truth, "--stations-csv", workflow_dir / "stations" / "stations.csv",
                  "--aggregates", workflow_dir / "agg" / "aggregates.csv"]
    made = {
        "synth": workflow_dir / "synth",
        "stations": workflow_dir / "stations",
        "aggregate": workflow_dir / "agg",
        "recover": workflow_dir / "rec",
        "evaluate": workflow_dir / "ev",
    }
    assert run(["recover", *from_files, "--method", "pe", "--out", made["recover"]]) == 0
    assert run(["evaluate", "--truth", truth, "--estimate", truth, "--out", made["evaluate"]]) == 0
    for command, out in made.items():
        manifest = json.loads((out / "manifest.json").read_text())
        need_inputs, need_params = _REPLAYED[command]
        assert manifest["inputs"].keys() == need_inputs.keys(), command
        assert manifest["params"].keys() == need_params.keys(), command
    # --truth mode adds the seed it sampled with; css is the default method
    assert run(["recover", "--truth", truth, "--stations", 3, "--out", workflow_dir / "t"]) == 0
    params = json.loads((workflow_dir / "t" / "manifest.json").read_text())["params"]
    assert params.keys() == {*_REPLAYED["recover"][1], "seed"}
    assert params["methods"] == ["css"] and params["lambda"] == 1.0


def test_manifest_command_mismatch(workflow_dir, capsys):
    code = run(["recover", "--from-manifest",
                workflow_dir / "synth" / "manifest.json", "--out", workflow_dir / "x"])
    assert code == 2
    assert "records command" in capsys.readouterr().err


@pytest.mark.parametrize("command,where,key", [
    ("synth", "params", "seed"),
    ("stations", "params", "stations"),
    ("aggregate", "inputs", "stations"),
    ("recover", "params", "max_iter"),
    ("recover", "params", "seed"),
    ("evaluate", "params", "floor"),
])
def test_replayed_manifest_lacking_a_key_exits_two(workflow_dir, capsys, command, where, key):
    truth = workflow_dir / "synth" / "truth.csv"
    made = {"synth": "synth", "stations": "stations", "aggregate": "agg"}.get(command, command)
    if command == "recover":
        assert run(["recover", "--truth", truth, "--stations", 5, "--method", "pe",
                    "--out", workflow_dir / made]) == 0
    elif command == "evaluate":
        assert run(["evaluate", "--truth", truth, "--estimate", truth,
                    "--out", workflow_dir / made]) == 0
    manifest = json.loads((workflow_dir / made / "manifest.json").read_text())
    del manifest[where][key]
    edited = workflow_dir / "edited.json"
    edited.write_text(json.dumps(manifest))
    replay = workflow_dir / "replay"
    assert run([command, "--from-manifest", edited, "--out", replay]) == 2
    assert f"'{where}' lacks '{key}'" in capsys.readouterr().err
    assert not replay.exists()


@pytest.mark.parametrize("key,value", [("rows", "six"), ("amp", [1.0]), ("beta", ["2"]),
                                       ("seed", True)])
def test_replayed_manifest_with_an_ill_typed_param_exits_two(workflow_dir, capsys, key, value):
    manifest = json.loads((workflow_dir / "synth" / "manifest.json").read_text())
    manifest["params"][key] = value
    edited = workflow_dir / "edited.json"
    edited.write_text(json.dumps(manifest))
    replay = workflow_dir / "replay"
    assert run(["synth", "--from-manifest", edited, "--out", replay]) == 2
    assert f"'params' entry '{key}' must be" in capsys.readouterr().err
    assert not replay.exists()


@pytest.mark.parametrize("where", ["inputs", "params"])
@pytest.mark.parametrize("value", [None, [], "truth.csv"])
def test_replayed_manifest_section_must_be_an_object(workflow_dir, capsys, where, value):
    manifest = json.loads((workflow_dir / "stations" / "manifest.json").read_text())
    manifest[where] = value
    edited = workflow_dir / "edited.json"
    edited.write_text(json.dumps(manifest))
    replay = workflow_dir / "replay"
    assert run(["stations", "--from-manifest", edited, "--out", replay]) == 2
    assert f"missing '{where}' object" in capsys.readouterr().err
    assert not replay.exists()


@pytest.mark.parametrize("flag,text,message", [
    ("--amp", "1", "expected 'low,high', got '1'"),
    ("--amp", "1,x", "could not convert string to float: 'x'"),
    ("--beta", "1,x", "could not convert string to float: 'x'"),
])
def test_ill_formed_number_lists_are_usage_errors(tmp_path, capsys, flag, text, message):
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--rows", 4, "--cols", 4, flag, text, "--out", tmp_path / "x"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_features_flow(tmp_path):
    synth = tmp_path / "synth"
    assert run(["synth", "--rows", 8, "--cols", 8, "--bumps", 2, "--beta", "1.0,0.5",
                "--blocks", 6, "--seed", 2, "--out", synth]) == 0
    assert (synth / "covariates.csv").exists()
    rec = tmp_path / "rec"
    assert run(["recover", "--truth", synth / "truth.csv", "--stations", 5,
                "--features", synth / "covariates.csv",
                "--method", "css-features", "--out", rec]) == 0
    assert (rec / "estimate_css-features.csv").exists()


def test_file_mode_estimates_ignore_the_station_listing_order(tmp_path):
    # a draw with tied cells, listed again in reverse with ids renumbered:
    # a tie goes by cell, not by list position, so no estimate moves
    synth, st, agg = (tmp_path / d for d in ("synth", "st", "agg"))
    assert run(["synth", "--rows", 20, "--cols", 20, "--seed", 1, "--beta", "0.5,2.0,1.5",
                "--out", synth]) == 0
    assert run(["stations", "--field", synth / "truth.csv", "--stations", 30, "--seed", 2,
                "--out", st]) == 0
    assert run(["aggregate", "--field", synth / "truth.csv", "--stations-csv", st / "stations.csv",
                "--out", agg]) == 0
    assert json.loads((agg / "manifest.json").read_text())["results"]["ties"]
    for path in (st / "stations.csv", agg / "aggregates.csv"):
        header, *rows = path.read_text().splitlines()
        relisted = [f"{i},{row.split(',', 1)[1]}" for i, row in enumerate(reversed(rows))]
        (tmp_path / f"reversed_{path.name}").write_text("\n".join([header, *relisted]) + "\n")
    methods = [arg for m in ("pe", "pe-ssr1", "pe-ssr2", "css", "css-features")
               for arg in ("--method", m)]
    for stations, volumes, out in [(st / "stations.csv", agg / "aggregates.csv", "rec"),
                                   (tmp_path / "reversed_stations.csv",
                                    tmp_path / "reversed_aggregates.csv", "rec-reversed")]:
        assert run(["recover", "--domain", synth / "truth.csv", "--stations-csv", stations,
                    "--aggregates", volumes, "--features", synth / "covariates.csv",
                    *methods, "--out", tmp_path / out]) == 0
    written = sorted(p.name for p in (tmp_path / "rec").glob("*.csv"))
    assert len(written) == 7   # five estimates and two css diagnostics
    for name in written:
        assert (tmp_path / "rec" / name).read_bytes() == \
            (tmp_path / "rec-reversed" / name).read_bytes(), name


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(["synth", "--cols", 4, "--out", tmp_path / "x"]) == 2
    assert run(["stations", "--stations", 3, "--out", tmp_path / "x"]) == 2
    assert run(["evaluate", "--truth", "t.csv", "--out", tmp_path / "x"]) == 2
    assert run(["synth", "--rows", 4, "--cols", 4]) == 2  # no --out
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text("definitely,not,a,field\n")
    assert run(["stations", "--field", bad, "--stations", 2,
                "--out", tmp_path / "x"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["synth", "--rows", 4, "--cols", 4, "--seed", -2],
    ["stations", "--field", "synth/truth.csv", "--stations", 3, "--seed", -1],
    ["recover", "--truth", "synth/truth.csv", "--stations", 3, "--method", "pe", "--seed", -1],
], ids=["synth", "stations", "recover"])
def test_negative_seed_is_a_usage_error(workflow_dir, capsys, args):
    # numpy refuses a negative seed with a ValueError of its own; the
    # command refuses it first, as a usage error on one line
    capsys.readouterr()
    out = workflow_dir / "negative-seed"
    args = [workflow_dir / a if str(a).endswith(".csv") else a for a in args]
    assert run([*args, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert "seed must be nonnegative" in err and "Traceback" not in err
    assert not out.exists()


def test_bad_floor_and_tol_exit_two(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    write_field_csv(SpatialField(make_domain(1, 3), np.array([1.0, 0.0, 2.0])), truth)
    out = tmp_path / "ev"
    assert run(["evaluate", "--truth", truth, "--estimate", truth,
                "--floor", 0, "--out", out]) == 2
    assert "floor" in capsys.readouterr().err
    assert not (out / "report.csv").exists()
    assert run(["recover", "--truth", truth, "--stations", 1, "--method", "pe",
                "--tol", "nan", "--out", tmp_path / "rec"]) == 2
    assert "tol" in capsys.readouterr().err


def test_repeated_labels_and_methods_exit_two(workflow_dir, capsys):
    truth = workflow_dir / "synth" / "truth.csv"
    ev = workflow_dir / "ev"
    copy = workflow_dir / "copy" / "truth.csv"
    copy.parent.mkdir()
    copy.write_bytes(truth.read_bytes())
    # an explicit label twice, and two paths that default to the same label
    for a, b in ((f"css={truth}", f"css={copy}"), (truth, copy)):
        assert run(["evaluate", "--truth", truth, "--estimate", a, "--estimate", b,
                    "--out", ev]) == 2
        assert "given more than once" in capsys.readouterr().err
        assert not (ev / "report.csv").exists()
    rec = workflow_dir / "rec"
    assert run(["recover", "--truth", truth, "--stations", 5, "--method", "pe",
                "--method", "css", "--method", "pe", "--out", rec]) == 2
    assert "method 'pe' given more than once" in capsys.readouterr().err
    assert not (rec / "estimate_pe.csv").exists()


def test_rejected_command_leaves_no_output_directory(workflow_dir, capsys):
    truth = workflow_dir / "synth" / "truth.csv"
    missing = workflow_dir / "missing.csv"
    huge = workflow_dir / "huge.csv"
    huge.write_text("row,col,value\n0,9223372036854775807,1\n")
    bad_stations = workflow_dir / "bad_stations.csv"
    bad_stations.write_text("station_id,row,col\n0,0,0\n1,x,1\n")
    short_volumes = workflow_dir / "short_volumes.csv"
    short_volumes.write_text(
        "\n".join((workflow_dir / "agg" / "aggregates.csv").read_text().splitlines()[:-1]) + "\n")
    from_files = ["--domain", truth, "--stations-csv", workflow_dir / "stations" / "stations.csv",
                  "--aggregates", workflow_dir / "agg" / "aggregates.csv"]
    rejected = {
        "floor": ["evaluate", "--truth", truth, "--estimate", truth, "--floor", 0],
        "label": ["evaluate", "--truth", truth, "--estimate", f"a={truth}",
                  "--estimate", f"a={truth}"],
        "method": ["recover", "--truth", truth, "--stations", 3, "--method", "pe",
                   "--method", "pe"],
        "stations": ["recover", "--truth", truth, "--method", "pe"],
        "aggregate without stations": ["aggregate", "--field", truth],
        # a flag the mode would ignore
        "truth and domain": ["recover", "--truth", truth, "--stations", 3, "--domain", missing],
        "count and stations csv": ["recover", *from_files, "--stations", 3, "--method", "pe"],
        "seed in file mode": ["recover", *from_files, "--seed", 7, "--method", "pe"],
        "huge field": ["stations", "--field", huge, "--stations", 1],
        "bad stations row": ["recover", "--domain", truth, "--stations-csv", bad_stations,
                             "--aggregates", workflow_dir / "agg" / "aggregates.csv"],
        # one volume fewer than stations: refused before any method runs
        "volume count": ["recover", "--domain", truth, "--stations-csv",
                         workflow_dir / "stations" / "stations.csv", "--aggregates", short_volumes,
                         "--method", "pe", "--method", "css"],
        # a blocky covariate column anchors each block at its own cell
        "blocks past the cells": ["synth", "--rows", 2, "--cols", 2, "--beta", "1,2",
                                  "--blocks", 5],
        "non-finite noise": ["synth", "--rows", 4, "--cols", 4, "--noise", "inf"],
        "non-finite beta": ["synth", "--rows", 4, "--cols", 4, "--beta", "nan"],
        # finite settings whose field sums past the largest float
        "overflowing amplitudes": ["synth", "--rows", 4, "--cols", 4, "--amp", "1e308,1e308",
                                   "--bumps", 3],
        "overflowing noise": ["synth", "--rows", 4, "--cols", 4, "--noise", "1e308"],
        # a finite smoothing weight whose penalty overflows
        "overflowing lambda": ["recover", "--truth", truth, "--stations", 5, "--method", "pe-ssr2",
                               "--lambda", "1e308"],
        # refused before anything is allocated, past the field reader's cap
        "grid past the cap": ["synth", "--rows", 100_000, "--cols", 100_000],
        # the field is read before the missing cdf
        "plot": ["plot", "--field", truth, "--cdf", missing],
    }
    for what, args in rejected.items():
        top = workflow_dir / "rejected" / what
        # the typed error is all a user reads: no numpy warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*args, "--out", top / "out"]) == 2, what
        assert "error:" in capsys.readouterr().err
        assert not top.exists(), what
        # a directory that already existed keeps what it held
        (top / "out").mkdir(parents=True)
        (top / "out" / "keep.txt").write_text("kept")
        assert run([*args, "--out", top / "out"]) == 2, what
        assert (top / "out" / "keep.txt").read_text() == "kept"


@pytest.mark.parametrize("entry", [["", "t.csv"], ["a/b", "t.csv"], ["a"], "ab"])
def test_manifest_replay_checks_estimate_labels(workflow_dir, capsys, entry):
    truth = workflow_dir / "synth" / "truth.csv"
    ev = workflow_dir / "ev"
    assert run(["evaluate", "--truth", truth, "--estimate", f"ok={truth}", "--out", ev]) == 0
    manifest = json.loads((ev / "manifest.json").read_text())
    manifest["inputs"]["estimates"].append(entry)
    edited = workflow_dir / "edited.json"
    edited.write_text(json.dumps(manifest))
    replay = workflow_dir / "replay"
    assert run(["evaluate", "--from-manifest", edited, "--out", replay]) == 2
    assert "error: " in capsys.readouterr().err
    assert not replay.exists()


def test_label_with_path_separator_is_a_usage_error(workflow_dir, capsys):
    truth = workflow_dir / "synth" / "truth.csv"
    with pytest.raises(SystemExit) as exc:
        run(["evaluate", "--truth", truth, "--estimate", f"a/b={truth}",
             "--out", workflow_dir / "ev"])
    assert exc.value.code == 2
    assert "path separator" in capsys.readouterr().err


def test_non_finite_inputs_exit_two(workflow_dir, capsys):
    bad_field = workflow_dir / "bad_field.csv"
    lines = (workflow_dir / "synth" / "truth.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
    bad_field.write_text("\n".join(lines) + "\n")
    assert run(["stations", "--field", bad_field, "--stations", 5,
                "--out", workflow_dir / "st"]) == 2
    assert f"{bad_field}:4: column 'value' has non-finite value 'nan'" in capsys.readouterr().err
    bad_agg = workflow_dir / "bad_agg.csv"
    lines = (workflow_dir / "agg" / "aggregates.csv").read_text().splitlines()
    lines[2] = "1,inf"
    bad_agg.write_text("\n".join(lines) + "\n")
    rec = workflow_dir / "rec"
    assert run(["recover", "--domain", workflow_dir / "synth" / "truth.csv",
                "--stations-csv", workflow_dir / "stations" / "stations.csv",
                "--aggregates", bad_agg, "--method", "pe", "--out", rec]) == 2
    assert f"{bad_agg}:3: column 'volume' has non-finite value 'inf'" in capsys.readouterr().err
    assert not (rec / "estimate_pe.csv").exists()


def test_truth_mode_conflicts_exit_two(workflow_dir):
    assert run(["recover", "--truth", workflow_dir / "synth" / "truth.csv",
                "--stations", 4,
                "--stations-csv", workflow_dir / "stations" / "stations.csv",
                "--out", workflow_dir / "x"]) == 2
    assert run(["recover", "--truth", workflow_dir / "synth" / "truth.csv",
                "--out", workflow_dir / "x"]) == 2
    assert run(["recover", "--domain", workflow_dir / "synth" / "truth.csv",
                "--out", workflow_dir / "x"]) == 2


def test_features_method_without_features_exits_two(workflow_dir):
    assert run(["recover", "--truth", workflow_dir / "synth" / "truth.csv",
                "--stations", 4, "--method", "css-features",
                "--out", workflow_dir / "x"]) == 2


def test_runtime_failure_exits_one(tmp_path, capsys):
    synth = tmp_path / "synth"
    assert run(["synth", "--rows", 4, "--cols", 4, "--bumps", 0,
                "--out", synth]) == 0
    truth = read_field_csv(synth / "truth.csv")
    assert truth.values.sum() == 0.0
    code = run(["stations", "--field", synth / "truth.csv", "--stations", 2,
                "--out", tmp_path / "st"])
    assert code == 1
    assert "zero total mass" in capsys.readouterr().err


def test_too_few_stations_for_a_surface_exit_one(workflow_dir, capsys):
    # one or two station cells cannot pin down an affine surface, so pe-ssr1
    # has no unique fit
    for n_stations in (1, 2):
        out = workflow_dir / f"rec_{n_stations}"
        assert run(["recover", "--truth", workflow_dir / "synth" / "truth.csv",
                    "--stations", n_stations, "--method", "pe-ssr1", "--out", out]) == 1
        assert "singular" in capsys.readouterr().err
        assert not (out / "estimate_pe-ssr1.csv").exists()


def test_plot_requires_an_input(tmp_path, capsys):
    assert run(["plot", "--out", tmp_path / "p"]) == 2
    assert "at least one" in capsys.readouterr().err


def test_stations_are_reproducible(workflow_dir, tmp_path):
    field = workflow_dir / "synth" / "truth.csv"
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["stations", "--field", field, "--stations", 4, "--seed", 3, "--out", a]) == 0
    assert run(["stations", "--field", field, "--stations", 4, "--seed", 3, "--out", b]) == 0
    assert (a / "stations.csv").read_bytes() == (b / "stations.csv").read_bytes()
    c = tmp_path / "c"
    assert run(["stations", "--field", field, "--stations", 4, "--seed", 4, "--out", c]) == 0
    assert (a / "stations.csv").read_bytes() != (c / "stations.csv").read_bytes()


def test_negative_field_cell_exits_one(workflow_dir, capsys):
    field = workflow_dir / "negative.csv"
    lines = (workflow_dir / "synth" / "truth.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",-0.5"
    field.write_text("\n".join(lines) + "\n")
    # finite values whose sum overflows
    overflow = workflow_dir / "overflow.csv"
    overflow.write_text("row,col,value\n0,0,1e308\n0,1,1e308\n1,0,1\n1,1,1\n")
    # each patch's volume is finite, but not their total, which the manifest records
    diagonal = workflow_dir / "diagonal.csv"
    diagonal.write_text("row,col,value\n0,0,1e308\n0,1,1\n1,0,1\n1,1,1e308\n")
    corners = workflow_dir / "corners.csv"
    corners.write_text("station_id,row,col\n0,0,0\n1,1,1\n")
    cases = [
        (["stations", "--field", field, "--stations", 3], "field has a negative value"),
        (["recover", "--truth", field, "--stations", 3, "--method", "pe"],
         "field has a negative value"),
        (["stations", "--field", overflow, "--stations", 2], "field total inf overflows"),
        (["aggregate", "--field", overflow, "--stations-csv", corners],
         "volumes must be finite"),
        (["aggregate", "--field", diagonal, "--stations-csv", corners],
         "volume total inf overflows"),
        (["recover", "--truth", overflow, "--stations", 2, "--method", "pe"],
         "field total inf overflows"),
    ]
    for args, message in cases:
        out = workflow_dir / "negative" / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*args, "--out", out]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (workflow_dir / "negative").exists()


def test_plot_refuses_non_finite_values(workflow_dir, capsys):
    truth = workflow_dir / "synth" / "truth.csv"
    bad = {
        "cdf": [f"method,seed,error,cdf\npe,,0.25,0.5\npe,,{e},{p}\n"
                for e, p in (("inf", "1.0"), ("nan", "1.0"), ("0.5", "nan"))],
        "report": [f"method,seed,mre,excluded\npe,,0.5,0\ncss,,{mre},0\n"
                   for mre in ("nan", "inf", "-0.5")],
    }
    for option, texts in bad.items():
        for k, text in enumerate(texts):
            path = workflow_dir / f"bad_{option}.csv"
            path.write_text(text)
            top = workflow_dir / f"plot_{option}_{k}"
            args = ["plot", "--field", truth, f"--{option}", path, "--out", top / "out"]
            assert run(args) == 2
            what = "negative mre -0.5" if "-0.5" in text else "non-finite"
            assert f"error: {path}: cannot plot {what}" in capsys.readouterr().err
            assert not top.exists()
            # into an existing directory: no SVG is written, not even the field's
            (top / "out").mkdir(parents=True)
            assert run(args) == 2
            assert not list((top / "out").iterdir())


def test_pe_only_recover_builds_no_mesh(workflow_dir, monkeypatch):
    from csmooth import fem

    built = []

    def assemble(tri):
        built.append(tri)
        return real_assemble(tri)

    real_assemble = fem.assemble
    monkeypatch.setattr(fem, "assemble", assemble)
    truth = workflow_dir / "synth" / "truth.csv"
    base = ["recover", "--truth", truth, "--stations", 5]
    assert run([*base, "--method", "pe", "--out", workflow_dir / "pe"]) == 0
    assert built == []
    assert run([*base, "--method", "pe", "--method", "pe-ssr2", "--out",
                workflow_dir / "both"]) == 0
    assert len(built) == 1
    # the mesh changes nothing pe writes
    assert ((workflow_dir / "pe" / "estimate_pe.csv").read_bytes()
            == (workflow_dir / "both" / "estimate_pe.csv").read_bytes())


def test_unreadable_csv_exits_two(workflow_dir, capsys):
    """A field csv.reader refuses or bytes that are not text: a SchemaError naming the line."""
    lines = (workflow_dir / "synth" / "truth.csv").read_bytes().splitlines()
    big = workflow_dir / "big.csv"
    big.write_bytes(b"\n".join([*lines[:3], b"0,0," + b"9" * 200_000, *lines[3:]]) + b"\n")
    binary = workflow_dir / "binary.csv"
    binary.write_bytes(b"\n".join([*lines[:-1], b"7,7,\xff1"]) + b"\n")
    cases = [(big, "4: field larger than field limit"),
             (binary, f"{len(lines)}: not utf-8 text (invalid start byte)")]
    for path, message in cases:
        out = workflow_dir / "unreadable" / "out"
        assert run(["stations", "--field", path, "--stations", 3, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{message}"), err
        assert not (workflow_dir / "unreadable").exists()
