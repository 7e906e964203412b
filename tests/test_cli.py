import json
import os
import pathlib
import subprocess
import sys

import pytest

from e510 import cli, uminus


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_omega_worked_example(capsys):
    code, out, _ = run(["omega", "21,13,45,25"], capsys)
    assert code == 0
    assert out.strip() == ("d12 d13 d25 d45 - 1/2 del4 d12 d45 "
                           "- 1/2 del3 d13 d25 - 1/2 del2 d12 d25 + 1/4 del3 del4")


def test_omega_trivial_and_vanishing(capsys):
    code, out, _ = run(["omega", "12"], capsys)
    assert code == 0 and out.strip() == "d12"
    code, out, _ = run(["omega", "12,12"], capsys)
    assert code == 0 and out.strip() == "0"


def test_omega_json_and_latex(capsys):
    code, out, _ = run(["omega", "12", "--json"], capsys)
    assert code == 0
    assert json.loads(out) == [{"monomial": {"del": [0, 0, 0, 0, 0],
                                             "pairs": [[1, 2]]}, "coeff": "1"}]
    code, out, _ = run(["omega", "12", "--latex"], capsys)
    assert out.strip() == "d_{12}"


def test_omega_parse_error(capsys):
    code, _out, err = run(["omega", "126"], capsys)
    assert code == 1
    assert "bad pair" in err


def test_dim_u(capsys):
    code, out, _ = run(["dim-u", "--degree", "2", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 50


@pytest.mark.parametrize("d", range(9))
def test_dim_u_counts_the_pbw_monomials(capsys, d):
    code, out, _ = run(["dim-u", "--degree", str(d), "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == len(uminus.pbw_monomials(d))
    assert data["dimension"] == sum(row["count"] for row in data["layout"])
    assert [row["dels"] for row in data["layout"]] == sorted(
        {sum(m[0]) for m in uminus.pbw_monomials(d)})


def test_irrep(capsys):
    code, out, _ = run(["irrep", "--lambda", "1,1,0,0", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 40
    code, _out, err = run(["irrep", "--lambda", "1,-1,0,0"], capsys)
    assert code == 1 and "dominant" in err


def test_singular_hit_and_miss(capsys):
    code, out, _ = run(["singular", "--mu", "1,1,0,0", "--degree", "1",
                        "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["hits"] == 1
    assert data["rows"][0]["family"] == "nabla_A"
    code, out, _ = run(["singular", "--mu", "0,1,1,0", "--degree", "1",
                        "--json"], capsys)
    assert code == 0
    assert json.loads(out)["hits"] == 0


def test_singular_certificates_verify(tmp_path, capsys):
    out_dir = str(tmp_path / "certs")
    code, out, _ = run(["singular", "--mu", "0,0,1,0", "--degree", "1",
                        "--out", out_dir, "--verify"], capsys)
    assert code == 0
    assert "verified 1 certificate(s)" in out
    path = next((tmp_path / "certs").glob("*.json"))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0 and "ok" in out


def test_verify_detects_corruption(tmp_path, capsys):
    out_dir = str(tmp_path / "certs")
    run(["singular", "--mu", "0,0,1,0", "--degree", "1", "--out", out_dir],
        capsys)
    path = next((tmp_path / "certs").glob("*.json"))
    cert = json.loads(path.read_text())
    cert["vector"][0]["fcoeffs"][0]["coeff"] = "9"
    path.write_text(json.dumps(cert))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 3 and "FAIL" in out


@pytest.mark.parametrize("cert", [
    {"mu": [0, 0, 0, 0]},
    [1, 2],
    {"mu": [0, 0, 0, 0], "lambda": [0, 1, 0, 0], "degree": "x",
     "vector": [], "leading_term": [], "family": "nabla_A"},
])
def test_verify_malformed_certificate(cert, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 3
    assert out.startswith(f"{path}: FAIL: malformed certificate: ")


@pytest.mark.parametrize("data", [
    b"\xff\xfe not UTF-8",
    b"[" * 100_000 + b"]" * 100_000,
    b"1" * 5000,
], ids=["not-utf8", "nested-too-deep", "integer-too-long"])
def test_verify_unreadable_file(data, tmp_path, capsys):
    # input that json cannot decode is a usage error, not a traceback
    path = tmp_path / "cert.json"
    path.write_bytes(data)
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error reading {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("tamper", ["all-false", "not-a-dict", "missing"])
def test_verify_reads_stored_checks(tamper, tmp_path, capsys):
    # the stored checks must be the four booleans the re-run produces
    out_dir = str(tmp_path / "certs")
    run(["singular", "--mu", "0,0,0,0", "--degree", "1", "--out", out_dir],
        capsys)
    path = next((tmp_path / "certs").glob("*.json"))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0 and out.endswith(": ok\n")
    cert = json.loads(path.read_text())
    if tamper == "all-false":
        cert["checks"] = {key: False for key in cert["checks"]}
    elif tamper == "not-a-dict":
        cert["checks"] = "garbage"
    else:
        del cert["checks"]
    path.write_text(json.dumps(cert))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 3 and "FAIL" in out


def test_verify_accepts_equations_false_above_degree_3(tmp_path, capsys):
    # above degree 3 no equations exist, and "equations": false is written
    out_dir = str(tmp_path / "certs")
    code, _out, _ = run(["singular", "--mu", "0,0,0,0", "--degree", "4",
                         "--out", out_dir], capsys)
    assert code == 0
    path = next((tmp_path / "certs").glob("*.json"))
    assert json.loads(path.read_text())["checks"]["equations"] is False
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0 and out.endswith(": ok\n")


def test_weights_beyond_the_exponent_slot_are_usage_errors(tmp_path, capsys):
    # a tensor exponent has 16 bits, so no module holds an entry of 2^16: a
    # message and exit 1, not a traceback
    limit = "weight entries must be below 2^16 = 65536"
    for argv in (["singular", "--mu", "65536,0,0,0", "--degree", "1"],
                 ["irrep", "--lambda", "0,0,0,65536"]):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {limit}") and err.count("\n") == 1
    out_dir = str(tmp_path / "certs")
    run(["singular", "--mu", "0,0,0,0", "--degree", "1", "--out", out_dir], capsys)
    path = next((tmp_path / "certs").glob("*.json"))
    cert = json.loads(path.read_text())
    cert["mu"] = [65536, 0, 0, 0]
    path.write_text(json.dumps(cert))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: {limit}") and err.count("\n") == 1


@pytest.mark.parametrize("box", ["65536", "70000"])
def test_classify_refuses_a_box_beyond_the_exponent_slot(box, capsys, monkeypatch):
    # refused up front, before the (box + 1)^4 weights of the box are listed
    def enumerate_box(max_entry):
        raise AssertionError("the box was enumerated")

    monkeypatch.setattr(cli.sl5, "dominant_weights_in_box", enumerate_box)
    code, out, err = run(["classify", "--degree", "1", "--max-entry", box], capsys)
    assert code == 1 and out == ""
    assert err == (f"error: --max-entry: weight entries must be below 2^16 = 65536, "
                   f"the limit of a tensor exponent: {(int(box),) * 4}\n")


@pytest.mark.parametrize("argv", [["singular", "--mu", "a,b,c,d"],
                                  ["singular", "--mu", "1,0,0"],
                                  ["singular", "--mu", "1,0,0,0,0"],
                                  ["irrep", "--lambda", "1,x,0,0"],
                                  ["irrep", "--lambda", "1.5,0,0,0"]])
def test_a_weight_that_is_not_four_integers_is_named(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: weight must be 4 integers a,b,c,d: {argv[2]!r}\n"


@pytest.mark.parametrize("tamper", ["zero", "empty"])
def test_verify_rejects_zero_vector(tamper, tmp_path, capsys):
    out_dir = str(tmp_path / "certs")
    run(["singular", "--mu", "0,0,1,0", "--degree", "1", "--out", out_dir],
        capsys)
    path = next((tmp_path / "certs").glob("*.json"))
    cert = json.loads(path.read_text())
    for key in ("vector", "leading_term"):
        if tamper == "empty":
            cert[key] = []
        for entry in cert[key]:
            for fc in entry["fcoeffs"]:
                fc["coeff"] = "0"
    path.write_text(json.dumps(cert))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 3 and "FAIL: malformed certificate" in out


def test_json_stdout_is_one_document_with_certificates(tmp_path, capsys):
    # under --json the "wrote" and "verified" lines go to stderr
    out_dir = tmp_path / "certs"
    code, out, err = run(["classify", "--degree", "2", "--max-entry", "2", "--json",
                          "--out", str(out_dir)], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 6 and data["anomalies"] == 0
    paths = sorted(out_dir.glob("*.json"))
    assert len(paths) == 6
    assert sorted(err.splitlines()) == [f"wrote {p}" for p in paths]
    code, out, err = run(["singular", "--mu", "0,0,1,0", "--degree", "1", "--json",
                          "--out", str(tmp_path / "one"), "--verify"], capsys)
    assert code == 0
    assert json.loads(out)["hits"] == 1
    assert err.splitlines()[-1] == "verified 1 certificate(s)"


def test_classify_small(capsys):
    code, out, _ = run(["classify", "--degree", "1", "--max-entry", "0",
                        "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["anomalies"] == 0
    assert data["rows"] == [{"mu": [0, 0, 0, 0], "lambda": [0, 1, 0, 0],
                             "dim": 1, "family": "nabla_A"}]


def test_classify_deterministic(capsys):
    code1, out1, _ = run(["classify", "--degree", "1", "--max-entry", "1",
                          "--json"], capsys)
    code2, out2, _ = run(["classify", "--degree", "1", "--max-entry", "1",
                          "--json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_classify_does_not_depend_on_the_hash_seed(tmp_path):
    # str and tuple hashes change with PYTHONHASHSEED; the degree-2 box-2
    # sweep's stdout and its six certificates must not
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    runs = []
    for seed in ("0", "987654"):
        cwd = tmp_path / seed
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "e510.cli", "classify", "--degree", "2", "--max-entry", "2",
             "--json", "--out", "certs"], cwd=cwd, capture_output=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, {f.name: f.read_bytes() for f in (cwd / "certs").iterdir()}))
    assert len(runs[0][1]) == 6
    assert runs[0] == runs[1]


def test_classify_thread_count_invariant(capsys):
    base = run(["classify", "--degree", "1", "--max-entry", "1", "--json"],
               capsys)[1]
    threaded = run(["classify", "--degree", "1", "--max-entry", "1",
                    "--threads", "2", "--json"], capsys)[1]
    assert base == threaded


@pytest.mark.parametrize("threads, box, cpus, size", [
    (3, "1", 8, 3),      # the thread count asked for
    (10**6, "1", 4, 4),  # no more processes than cores
    (10**6, "0", 8, None),  # one weight: no pool
    (2, "1", None, None),   # unknown core count: no pool
])
def test_classify_pool_size(threads, box, cpus, size, capsys, monkeypatch):
    import multiprocessing
    sizes = []

    class InlinePool:  # records its size, starts no process, runs inline
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, args):
            return [func(*a) for a in args]

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    argv = ["classify", "--degree", "1", "--max-entry", box, "--json"]
    code, out, _ = run(argv + ["--threads", str(threads)], capsys)
    assert code == 0
    assert sizes == ([] if size is None else [size])
    assert out == run(argv, capsys)[1]


def test_compose_and_dual(capsys):
    code, out, _ = run(["compose", "--chain", "CBA", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == [1, 1, 0, 0] and data["mu"] == [0, 0, 1, 1]
    assert data["check_morphism"] and not data["zero"]
    code, out, _ = run(["dual", "--chain", "A", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["check_morphism"]


def test_dual_checks_the_dual_once(capsys, monkeypatch):
    calls = []
    real = cli.verma.check_morphism

    def counted(phi):
        calls.append(phi.tag)
        return real(phi)

    monkeypatch.setattr(cli.verma, "check_morphism", counted)
    code, out, _ = run(["dual", "--chain", "BA", "--m", "1"], capsys)
    assert code == 0 and "check_morphism: True" in out
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [["compose", "--chain", "CBA", "--m", "3"],
                                  ["dual", "--chain", "CB", "--m", "1"],
                                  ["compose", "--chain", "BA", "--m", "1", "--n", "2"]])
def test_chain_rejects_ignored_parameter(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: chain ")


def test_usage_error_exit_code(capsys):
    try:
        cli.main(["classify", "--degree", "not-a-number", "--max-entry", "1"])
    except SystemExit as exc:
        assert exc.code == 1
    else:
        raise AssertionError("expected SystemExit")


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "e510.cli", "omega", "12"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "d12"


@pytest.mark.parametrize("argv", [
    ["singular", "--mu", "0,0,0,0", "--degree", "0"],
    ["dim-u", "--degree", "-1"],
    ["classify", "--degree", "1", "--max-entry", "-1"],
    ["classify", "--degree", "1", "--max-entry", "0", "--threads", "0"],
    ["compose", "--chain", "C", "--m", "-1"],
])
def test_out_of_range_integer_option(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["singular", "--mu", "0,0,0,1", "--degree", "1"],
    ["classify", "--degree", "1", "--max-entry", "0"],
])
@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
def test_out_that_cannot_be_a_directory(argv, sub, tmp_path, capsys):
    # --out naming a regular file, or a path below one, is a usage error
    blocker = tmp_path / "F"
    blocker.write_text("not a directory\n")
    code, out, err = run(argv + ["--out", str(blocker / sub)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: --out") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"
