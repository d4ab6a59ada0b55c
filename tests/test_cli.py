import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from miqpcert import certifier, milp
from miqpcert.certifier import CertifierError, find_certificate
from miqpcert.cli import main
from miqpcert.cones import NegativeCurvature
from miqpcert.formats import parse_instance, serialize_instance
from miqpcert.oracle import brute_force_feasibility

from helpers import random_boxed_instance

CASE1 = "1 1\n-1\n0\n1\n1\n-1\n0\n"
INFEASIBLE = "1 1\n1\n0\n1\n1\n-1\n0\n"


def write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_verify_cycle(tmp_path, capsys):
    inst = write(tmp_path, "a.inst", CASE1)
    cert = str(tmp_path / "a.cert")
    assert main(["solve", "--instance", inst, "--out", cert]) == 0
    out = capsys.readouterr().out
    assert "FEASIBLE" in out
    assert main(["verify", "--instance", inst, "--cert", cert]) == 0
    out = capsys.readouterr().out
    assert "q_value=" in out and "VALID" in out


def test_solve_infeasible_exit_code(tmp_path, capsys):
    inst = write(tmp_path, "b.inst", INFEASIBLE)
    cert = str(tmp_path / "b.cert")
    assert main(["solve", "--instance", inst, "--out", cert]) == 1
    assert "INFEASIBLE" in capsys.readouterr().out
    assert not os.path.exists(cert)


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    inst = write(tmp_path, "c.inst", CASE1)
    cert = str(tmp_path / "c.cert")
    main(["solve", "--instance", inst, "--out", cert])
    capsys.readouterr()
    tampered = Path(cert).read_text().replace("x 1", "x 1/2")
    Path(cert).write_text(tampered)
    assert main(["verify", "--instance", inst, "--cert", cert]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out


def test_verify_dimension_mismatch_is_input_error(tmp_path, capsys):
    inst = write(tmp_path, "d.inst", CASE1)
    cert = write(tmp_path, "d.cert", "x 1 2\ntrace orthant=all;branch=negative-ray;fiber=-;family=-;piece=-;ray=-;step=0;shift=-;bound=-\nsize 7\n")
    assert main(["verify", "--instance", inst, "--cert", cert]) == 2


TAG = "trace orthant=all;branch=negative-ray;fiber=-;family=-;piece=-;ray=-;step=0;shift=-;bound=-\n"


def test_verify_rejects_declared_size_mismatch(tmp_path, capsys):
    inst = write(tmp_path, "s.inst", CASE1)
    good = write(tmp_path, "good.cert", "x 5\n" + TAG + "size 7\n")
    assert main(["verify", "--instance", inst, "--cert", good]) == 0
    assert "VALID" in capsys.readouterr().out
    bad = write(tmp_path, "bad.cert", "x 5\n" + TAG + "size 9\n")
    assert main(["verify", "--instance", inst, "--cert", bad]) == 1
    out = capsys.readouterr().out
    assert "INVALID: declared size 9 != encoding size 7" in out
    assert "\nVALID" not in out


def test_verify_rejects_repeated_and_unknown_keys(tmp_path, capsys):
    inst = write(tmp_path, "k.inst", CASE1)
    cert = write(tmp_path, "k.cert", "x 0\nx 5\n" + TAG + "size 9\nbogus 1\n")
    assert main(["verify", "--instance", inst, "--cert", cert]) == 2
    assert "duplicate 'x'" in capsys.readouterr().err


def test_parse_error_exit_and_message(tmp_path, capsys):
    inst = write(tmp_path, "bad.inst", "2 2\n0 1\n2 0\n0 0\n0\n0\n")
    cert = str(tmp_path / "bad.cert")
    assert main(["solve", "--instance", inst, "--out", cert]) == 2
    err = capsys.readouterr().err
    assert "H[0][1]" in err and "H[1][0]" in err


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["solve", "--instance", str(tmp_path / "nope"), "--out", str(tmp_path / "x")]) == 2
    # a directory where a file is expected, to read or to write
    assert main(["solve", "--instance", str(tmp_path), "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err
    feasible = write(tmp_path, "feasible.inst", CASE1)
    assert main(["solve", "--instance", feasible, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "FEASIBLE" not in captured.out


def test_oracle_exit_codes(tmp_path, capsys):
    feas = write(tmp_path, "e.inst", CASE1)
    assert main(["oracle", "--instance", feas, "--box", "3"]) == 0
    infeas = write(tmp_path, "f.inst", INFEASIBLE)
    assert main(["oracle", "--instance", infeas, "--box", "3"]) == 1


def test_oracle_box_zero_caveat(tmp_path, capsys):
    # the box must cover the integer part: box 0 misses |x| >= 1 witnesses
    inst = write(tmp_path, "g.inst", CASE1)
    assert main(["oracle", "--instance", inst, "--box", "0"]) == 1
    assert main(["oracle", "--instance", inst, "--box", "1"]) == 0


def test_oracle_negative_box_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "n.inst", CASE1)
    with pytest.raises(ValueError):
        brute_force_feasibility(parse_instance(CASE1), -1)
    assert main(["oracle", "--instance", path, "--box", "-1"]) == 2
    captured = capsys.readouterr()
    assert "INFEASIBLE" not in captured.out and "non-negative" in captured.err


def test_gen_maxcut_cycle(tmp_path, capsys):
    out = str(tmp_path / "k3.inst")
    cert = str(tmp_path / "k3.cert")
    assert main(["gen-maxcut", "--edges", "a-b,b-c,a-c", "--k", "2", "--out", out]) == 0
    assert main(["solve", "--instance", out, "--out", cert]) == 0
    assert main(["oracle", "--instance", out, "--box", "1"]) == 0
    assert main(["gen-maxcut", "--edges", "a-b,b-c,a-c", "--k", "3", "--out", out]) == 0
    assert main(["solve", "--instance", out, "--out", cert]) == 1
    assert main(["oracle", "--instance", out, "--box", "1"]) == 1


def test_gen_maxcut_empty_graph(tmp_path, capsys):
    out = str(tmp_path / "empty.inst")
    cert = str(tmp_path / "empty.cert")
    assert main(["gen-maxcut", "--edges", "", "--k", "0", "--vertices", "1", "--out", out]) == 0
    assert main(["solve", "--instance", out, "--out", cert]) == 0
    assert "x 0" in Path(cert).read_text()


def test_gen_maxcut_malformed_edges(tmp_path, capsys):
    out = str(tmp_path / "zz.inst")
    assert main(["gen-maxcut", "--edges", "a-", "--k", "1", "--out", out]) == 2


def test_decompose_output(tmp_path, capsys):
    text = "2 2\n0 0\n0 0\n0 0\n0\n2\n-1 0\n0 -1\n0 0\n"
    inst = write(tmp_path, "quad.inst", text)
    assert main(["decompose", "--instance", inst]) == 0
    out = capsys.readouterr().out
    assert "ray-families 3" in out
    assert "fibers" in out


def test_fiber_limit_is_unknown(tmp_path, capsys, monkeypatch):
    # a resource limit is neither a verdict nor an input error: the search
    # and the decomposition walk one fiber stream, which reads the limit
    # when it runs, so both commands exit 3
    inst = str(tmp_path / "k3.inst")
    assert main(["gen-maxcut", "--edges", "a-b,b-c,a-c", "--k", "3", "--out", inst]) == 0
    monkeypatch.setattr(milp, "MAX_FIBERS", 1)
    capsys.readouterr()
    assert main(["solve", "--instance", inst, "--out", str(tmp_path / "k3.cert")]) == 3
    assert capsys.readouterr().out.startswith("UNKNOWN: ")
    assert main(["decompose", "--instance", inst]) == 3
    assert capsys.readouterr().out.startswith("UNKNOWN: ")
    assert not (tmp_path / "k3.cert").exists()
    assert issubclass(milp.FiberLimit, ValueError)


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    # the instance is valid, so a kernel ValueError escaping the search is the
    # library's fault: a CertifierError chained to it, exit 4, no certificate
    def fail(*args):
        raise NegativeCurvature("injected")

    monkeypatch.setattr(certifier, "certify_pointed_part", fail)
    with pytest.raises(CertifierError) as info:
        find_certificate(parse_instance(CASE1))
    assert isinstance(info.value.__cause__, NegativeCurvature)
    inst = write(tmp_path, "a.inst", CASE1)
    capsys.readouterr()
    assert main(["solve", "--instance", inst, "--out", str(tmp_path / "a.cert")]) == 4
    assert capsys.readouterr().err.startswith("internal error: NegativeCurvature: injected")
    assert not (tmp_path / "a.cert").exists()


def test_decompose_requires_pointed(tmp_path, capsys):
    text = "2 2\n0 0\n0 0\n0 0\n0\n1\n1 0\n0\n"
    inst = write(tmp_path, "half.inst", text)
    assert main(["decompose", "--instance", inst]) == 2


def test_solve_oracle_differential_small_corpus(tmp_path, capsys):
    rng = random.Random(404)
    for i in range(25):
        inst, box = random_boxed_instance(rng)
        path = write(tmp_path, f"r{i}.inst", serialize_instance(inst))
        cert = str(tmp_path / f"r{i}.cert")
        solve_rc = main(["solve", "--instance", path, "--out", cert])
        oracle_rc = main(["oracle", "--instance", path, "--box", str(box)])
        assert solve_rc == oracle_rc
        if solve_rc == 0:
            assert main(["verify", "--instance", path, "--cert", cert]) == 0


# unboxed systems in the style of the unbounded benchmark corpus, one per
# branch: a negative ray after an orthant split, a flat ray, residual windows
# with one and with two curving rays, and no solution
HASH_SEED_CASES = {
    "negative_ray": "3 1\n-1 -2 2\n-2 -2 3\n2 3 0\n-1 -3 0\n3\n1\n-2 2 2\n3\n",
    "linear_ray": "1 1\n0\n2\n1\n2\n3\n0\n2 3\n",
    "window_one_ray": "2 2\n3 -3\n-3 0\n-2 2\n3\n2\n0 2\n-2 -1\n1 2\n",
    "window_two_rays": (
        "3 2\n3 -3 1\n-3 -1 1\n1 1 3\n2 -3 3\n-1\n3\n1 -3 -1\n-3 -3 1\n0 2 0\n2 2 1\n"
    ),
    "infeasible": "1 1\n2\n1\n2\n2\n1\n3\n-2 2\n",
}


def test_solve_identical_across_hash_seeds(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    runs = {}
    for hash_seed in ("0", "1"):
        env["PYTHONHASHSEED"] = hash_seed
        for name, text in HASH_SEED_CASES.items():
            cert = tmp_path / f"{name}.{hash_seed}.cert"
            args = ["solve", "--instance", write(tmp_path, f"{name}.inst", text), "--out", str(cert)]
            done = subprocess.run(
                [sys.executable, "-m", "miqpcert.cli", *args],
                env=env, capture_output=True, text=True, timeout=120,
            )
            written = cert.read_bytes() if cert.exists() else None
            runs[hash_seed, name] = (done.returncode, done.stdout, written)
    for name in HASH_SEED_CASES:
        assert runs["0", name] == runs["1", name]
        code, _, cert = runs["0", name]
        if name == "infeasible":
            assert code == 1 and cert is None
        else:
            assert code == 0 and cert
    two_rays = runs["0", "window_two_rays"][1]
    assert "branch=window-qp" in two_rays and "shift=1,0;" in two_rays
