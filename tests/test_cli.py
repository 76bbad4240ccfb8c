import json

import pytest

from gensumset.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rcount_csv(capsys, tmp_path):
    out_path = tmp_path / "counts.csv"
    code, out, _ = _run(
        capsys, "rcount", "--N", "5", "--s", "2", "--d", "0", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,count"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 11  # h*N + 1 values
    assert sum(int(c) for _, c in rows) == 6**2  # (N+1)**h
    # provenance went to stdout as a JSON line
    prov = json.loads(out)
    assert prov["version"] and prov["config"]["N"] == 5


def test_rcount_stdout_provenance_comment(capsys):
    code, out, _ = _run(capsys, "rcount", "--N", "2", "--s", "1", "--d", "1")
    assert code == 0
    provenance, table = out.split("\n", 1)
    assert provenance.startswith("# {")
    assert table == "n,count\n-2,1\n-1,2\n0,3\n1,2\n2,1\n"


def test_constants_json(capsys, tmp_path):
    out_path = tmp_path / "constants.json"
    code, out, _ = _run(
        capsys,
        "constants", "--h", "3", "--kmax", "8",
        "--g-c", "2.0", "--g-combo", "2,1",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["h"] == 3 and doc["K_max"] == 8
    assert abs(doc["b"][0] - 1.0) < 1e-10
    assert len(doc["b"]) == 8
    entry = doc["g"][0]
    assert (entry["s"], entry["d"], entry["c"]) == (2, 1, 2.0)
    assert entry["value"] == 1.7308908442055353
    assert doc["provenance"]["version"]


def test_constants_g_at_large_c(capsys):
    # large c, where summing the alternating series in floats goes wrong
    for h, c, combo, value in [("5", "4", "3,2", 3.679840292904035),
                               ("3", "6", "2,1", 2.7587995818139106),
                               ("2", "4", "1,1", 1.8750000140668968)]:
        code, out, _ = _run(capsys, "constants", "--h", h, "--kmax", "200",
                            "--g-c", c, "--g-combo", combo)
        assert code == 0
        assert json.loads(out)["g"][0]["value"] == value


def test_constants_csv(capsys):
    code, out, _ = _run(capsys, "constants", "--h", "2", "--kmax", "3",
                        "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "k,b_hk"
    assert [line.split(",")[0] for line in lines[2:]] == ["1", "2", "3"]


def test_sample_sumset_xk_pipeline(capsys, tmp_path):
    set_path = tmp_path / "set.txt"
    code, _, _ = _run(
        capsys,
        "sample", "--N", "500", "--c", "1.0", "--delta", "1/2",
        "--seed", "9", "--trial", "2", "--out", str(set_path),
    )
    assert code == 0
    first, second = set_path.read_text().splitlines()
    assert first == "N=500"
    elements = [int(tok) for tok in second.split()]
    assert elements == sorted(set(elements))

    summary_path = tmp_path / "summary.json"
    member_path = tmp_path / "membership.csv"
    code, _, _ = _run(
        capsys,
        "sumset", "--infile", str(set_path), "--s", "1", "--d", "1",
        "--membership-csv", str(member_path), "--out", str(summary_path),
    )
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["s"] == 1 and summary["d"] == 1 and summary["N"] == 500
    assert summary["cardinality"] + summary["complement_count"] == 1001
    member_lines = member_path.read_text().splitlines()
    assert member_lines[0] == "n,member"
    assert len(member_lines) == 1002
    members = sum(int(line.split(",")[1]) for line in member_lines[1:])
    assert members == summary["cardinality"]

    code, out, _ = _run(
        capsys, "xk", "--infile", str(set_path), "--s", "1", "--d", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alternating_sum"] == doc["cardinality"] == summary["cardinality"]


def test_provenance_config_is_every_flag(capsys, tmp_path):
    # Each subcommand's provenance echoes all of its parsed flags; an
    # experiment's echoes its resolved config instead.
    set_path, out = str(tmp_path / "set.txt"), str(tmp_path / "out")
    config_path = tmp_path / "mstd.json"
    config_path.write_text(json.dumps({"kind": "mstd", "N": 20, "trials": 3, "seed": 5,
                                       "p": 0.5}))
    for argv, seed, config in [
        (["sample", "--N", "30", "--p", "0.5", "--seed", "4", "--out", set_path], 4,
         {"subcommand": "sample", "N": 30, "c": None, "delta": None, "p": 0.5,
          "seed": 4, "trial": 0, "out": set_path}),
        (["constants", "--h", "2", "--kmax", "2", "--out", out], None,
         {"subcommand": "constants", "h": 2, "kmax": 2, "g_c": [], "g_combo": [],
          "format": "json", "out": out}),
        (["rcount", "--N", "2", "--s", "1", "--d", "1", "--out", out], None,
         {"subcommand": "rcount", "N": 2, "s": 1, "d": 1, "format": "csv", "out": out}),
        (["sumset", "--infile", set_path, "--s", "2", "--d", "0", "--out", out], None,
         {"subcommand": "sumset", "infile": set_path, "s": 2, "d": 0,
          "membership_csv": None, "out": out}),
        (["xk", "--infile", set_path, "--s", "1", "--d", "1", "--out", out], None,
         {"subcommand": "xk", "infile": set_path, "s": 1, "d": 1, "kmax": None,
          "out": out}),
        (["experiment", "--config", str(config_path), "--json-out", out], 5,
         {"kind": "mstd", "N": [20], "trials": 3, "seed": 5, "combos": [[2, 0], [1, 1]],
          "c": None, "delta": None, "p": 0.5, "k": 1, "tolerance": 0.1,
          "bit_budget": 10**9, "fraction_window": [0.0002, 0.0009]}),
    ]:
        code, stdout, _ = _run(capsys, *argv)
        assert code == 0
        prov = json.loads(stdout.splitlines()[0])
        assert prov == {"tool": "gensumset", "version": prov["version"], "seed": seed,
                        "config": config}


def test_sample_reproducibility(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = _run(
            capsys,
            "sample", "--N", "300", "--p", "0.1", "--seed", "4", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_cli(capsys, tmp_path):
    config_path = tmp_path / "fast.json"
    config_path.write_text(
        json.dumps(
            {
                "kind": "fast-ratio",
                "combos": [[1, 1], [2, 0]],
                "N": [2000],
                "c": 1.0,
                "delta": "3/4",
                "trials": 12,
                "seed": 6,
            }
        )
    )
    json1, csv1 = tmp_path / "r1.json", tmp_path / "r1.csv"
    code, out, _ = _run(
        capsys,
        "experiment", "--config", str(config_path),
        "--json-out", str(json1), "--csv-out", str(csv1),
    )
    assert code == 0
    prov = json.loads(out.splitlines()[0])
    assert prov["seed"] == 6
    report = json.loads(json1.read_text())
    assert report["rows"][0]["predicted"] == 2.0
    header = csv1.read_text().splitlines()[0]
    assert header == "kind,s,d,N,trials,mean,stddev,stderr,predicted,rel_err,pass"

    json2 = tmp_path / "r2.json"
    code, _, _ = _run(
        capsys,
        "experiment", "--config", str(config_path),
        "--workers", "2", "--json-out", str(json2),
    )
    assert code == 0
    assert json1.read_bytes() == json2.read_bytes()

    json3 = tmp_path / "r3.json"
    code, _, _ = _run(
        capsys,
        "experiment", "--config", str(config_path), "--seed", "7",
        "--json-out", str(json3),
    )
    assert code == 0
    assert json.loads(json3.read_text())["seed"] == 7
    assert json1.read_bytes() != json3.read_bytes()


def test_exit_code_2_on_config_errors(capsys, tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(
        json.dumps({"kind": "mstd", "N": [50], "trials": 5, "seed": 1})
    )
    code, _, err = _run(capsys, "experiment", "--config", str(config_path))
    assert code == 2
    assert "p" in err

    config_path.write_text(
        json.dumps({"kind": "fast-ratio", "combos": [[1, 1], [2, 0]], "N": [200],
                    "c": 1.0, "delta": "3/4", "trials": 2, "seed": 1,
                    "tolerance": "ten"})
    )
    code, _, err = _run(capsys, "experiment", "--config", str(config_path))
    assert code == 2
    assert "tolerance" in err

    code, _, err = _run(capsys, "sample", "--N", "4", "--c", "10", "--delta", "1/2",
                        "--seed", "0")
    assert code == 2
    assert "probability" in err

    code, out, err = _run(capsys, "sample", "--N", "4", "--p", "0.5", "--seed", "-1")
    assert code == 2
    assert "seed" in err and out == ""

    for c in ("0", "nan", "inf"):
        code, _, err = _run(capsys, "constants", "--h", "2", "--g-c", c, "--g-combo", "1,1")
        assert code == 2
        assert "c must be positive and finite" in err

    # each of these names its field first, exits 2 and prints nothing to stdout
    set_path = tmp_path / "set.txt"
    set_path.write_text("N=5\n1 2\n")
    for argv, message in [
        (("constants", "--h", "3", "--kmax", "-1"), "kmax: must be non-negative, got -1"),
        (("constants", "--h", "1"), "h: must be at least 2, got 1"),
        (("constants", "--h", "1", "--kmax", "0"), "h: must be at least 2, got 1"),
        (("rcount", "--N", "-1", "--s", "2", "--d", "0"), "N: must be non-negative, got -1"),
        (("xk", "--infile", str(set_path), "--s", "1", "--d", "1", "--kmax", "-1"),
         "kmax: must be non-negative, got -1"),
    ]:
        code, out, err = _run(capsys, *argv)
        assert code == 2, argv
        assert err == f"configuration error: {message}\n" and out == ""

    # each bad field exits 2, naming it, before the provenance line is printed
    fast = {"kind": "fast-ratio", "combos": [[1, 1], [2, 0]], "N": [200, 4000],
            "c": 1.0, "delta": "3/4", "trials": 2, "seed": 1}
    for field, value in [("c", 100.0), ("c", float("nan")), ("c", float("inf")),
                         ("trials", 2.9), ("N", [100.7]), ("seed", -1),
                         ("seed", 1 << 64), ("combos", [[1.0, 1], [2, 0]])]:
        config_path.write_text(json.dumps({**fast, field: value}))
        code, out, err = _run(capsys, "experiment", "--config", str(config_path))
        assert code == 2, (field, value)
        assert f"configuration error: {field}: " in err
        assert out == ""
    # slow-h2 at p(N) = 1 exits 2 naming c and N, before any trial is drawn
    config_path.write_text(json.dumps({"kind": "slow-h2", "N": [1000], "trials": 2,
                                       "seed": 1, "c": 7.943282347242815,
                                       "delta": "3/10"}))
    code, out, err = _run(capsys, "experiment", "--config", str(config_path))
    assert code == 2
    assert "configuration error: c: " in err and "N = 1000" in err and out == ""
    # slow-h2 runs (2,0) and (1,1) only, so other combos exit 2 rather than
    # being echoed in a report of that pair
    config_path.write_text(json.dumps({"kind": "slow-h2", "N": [20000], "c": 1.0,
                                       "delta": "3/10", "trials": 3, "seed": 1,
                                       "combos": [[1, 1]]}))
    code, out, err = _run(capsys, "experiment", "--config", str(config_path))
    assert code == 2
    assert err.startswith("configuration error: combos: ") and out == ""
    # a config document that is not a JSON object exits 2, saying so
    for document, name in (("5", "int"), ("null", "NoneType"), ('["kind"]', "list")):
        config_path.write_text(document)
        code, out, err = _run(capsys, "experiment", "--config", str(config_path))
        assert code == 2, document
        assert f"configuration error: config: expected a JSON object, got {name}\n" in err
        assert out == ""
    config_path.write_text(json.dumps(fast))
    code, out, err = _run(capsys, "experiment", "--config", str(config_path),
                          "--seed", "-1")
    assert code == 2
    assert "configuration error: seed: " in err and out == ""
    # so does a worker count below 1, which used to run as 1
    for workers in ("0", "-5"):
        code, out, err = _run(capsys, "experiment", "--config", str(config_path),
                              "--workers", workers)
        assert code == 2, workers
        assert "configuration error: workers: must be at least 1" in err and out == ""


def test_exit_code_2_on_unknown_flags():
    with pytest.raises(SystemExit) as exc:
        main(["rcount", "--N", "5", "--s", "2", "--d", "0", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-subcommand"])
    assert exc.value.code == 2


def test_exit_code_3_on_budget_refusal(capsys):
    code, _, err = _run(capsys, "rcount", "--N", "1000000000", "--s", "2", "--d", "0")
    assert code == 3
    assert "budget" in err.lower() or "refused" in err.lower()


@pytest.mark.parametrize("command", ["sumset", "xk"])
def test_negative_n_set_file_exits_2(command, capsys, tmp_path):
    # A bad set file exits 2 naming its field, before the provenance line.
    set_path = tmp_path / "set.txt"
    for text, field in [
        ("N=-5\n\n", "N"),
        ("N=abc\n1 2\n", "N"),
        ("M=5\n1 2\n", "N"),
        ("N=5\n1 2.5\n", "elements"),
        ("N=5\n1 x\n", "elements"),
        ("N=5\n1 6\n", "elements"),
        ("N=5\n-1 2\n", "elements"),
        ("N=5\n3 3\n", "elements"),
        ("N=5\n4 2\n", "elements"),
    ]:
        set_path.write_text(text)
        code, out, err = _run(capsys, command, "--infile", str(set_path), "--s", "1",
                              "--d", "1")
        assert code == 2, text
        assert err.startswith(f"configuration error: {field}: ") and out == "", text
