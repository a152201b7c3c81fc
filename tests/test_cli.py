import json
import re
from pathlib import Path

import numpy as np
import pytest

import reference_serialize
from dgstab import algebra, certify, engine, regions, serialize
from dgstab import classes as dg_classes
from dgstab.cli import main
from test_classes import factory_classes
from test_total_oracle import _first_difference, _text


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, mat in {
        "id2": np.eye(2),
        "bad2": np.array([[-1.0, 2.0], [-4.0, 3.0]]),
        "hard2": np.array([[0.0, 1.0], [-1.0, 1.0]]),
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(serialize.matrix_to_json(mat)))
        paths[name] = str(p)
    csv = tmp_path / "diag3.csv"
    csv.write_text("1,0,0\n0,-2,0\n0,0,0\n")
    paths["diag3"] = str(csv)
    paths["tmp"] = tmp_path
    return paths


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def run(capsys, *argv):
    """(exit code, stdout) of one call; JSON output must parse strictly,
    without NaN or Infinity."""
    code = main(list(argv))
    out = capsys.readouterr().out
    if out.startswith(("{", "[")):
        json.loads(out, parse_constant=_not_json)
    return code, out


def test_check_certified_exit_zero(files, capsys):
    code, out = run(capsys, "check", "--matrix", files["id2"], "--region", "rhp",
                    "--class", "pos_diag", "--op", "mul")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "certified"
    assert payload["certificate"]["kind"] == "diagonal_lyapunov"


def test_check_refuted_exit_one(files, capsys):
    code, out = run(capsys, "check", "--matrix", files["bad2"], "--region", "rhp",
                    "--class", "pos_diag", "--op", "mul", "--budget", "100000")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "refuted"
    assert "witness" in payload and "offending_eigenvalue" in payload
    assert payload["margin"] > 1e-7


def test_check_unknown_exit_two(files, capsys):
    code, out = run(capsys, "check", "--matrix", files["hard2"], "--region", "rhp",
                    "--class", "pos_diag", "--op", "mul", "--budget", "200")
    assert code == 2
    assert json.loads(out)["status"] == "unknown"


def test_check_deterministic_output(files, capsys):
    args = ("check", "--matrix", files["bad2"], "--region", "rhp",
            "--class", "pos_diag", "--op", "mul", "--seed", "7")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_usage_errors_exit_64(files, capsys):
    code, _ = run(capsys, "check", "--matrix", "missing.json", "--region", "rhp",
                  "--class", "pos_diag", "--op", "mul")
    assert code == 64
    code, _ = run(capsys, "check", "--matrix", files["id2"], "--region",
                  "no_such_region", "--class", "pos_diag", "--op", "mul")
    assert code == 64
    code, _ = run(capsys, "check", "--matrix", files["id2"], "--region", "rhp",
                  "--class", "pos_diag")  # missing --op
    assert code == 64


def test_invalid_tol_and_empty_partition_block_exit_64(capsys):
    for tol in ("-1", "inf", "nan"):
        code, out = run(capsys, "check", "--matrix", "[[0.5,0],[0,0.5]]", "--region",
                        "rhp", "--class", "pos_diag", "--op", "mul", f"--tol={tol}")
        assert (code, out) == (64, ""), tol
    code, out = run(capsys, "check", "--matrix", "[[1,0],[0,1]]", "--region", "rhp",
                    "--class", '{"kind":{"alpha_scalar":[[1,2],[]]}}', "--op", "mul")
    assert (code, out) == (64, "")
    code, out = run(capsys, "certify", "--matrix", "[[1,0],[0,1]]", "--kind",
                    "alpha_scalar", "--partition", "[[1,2],[]]")
    assert (code, out) == (64, "")


_QUERY_2X2 = ("--matrix", "[[1,0],[0,1]]", "--op", "mul")


@pytest.mark.parametrize("argv", [
    ("check", *_QUERY_2X2, "--region", "rhp", "--class", '{"kind":{"sign_diag":5}}'),
    ("check", *_QUERY_2X2, "--region", "rhp", "--class", '{"kind":{"sign_diag":"ab"}}'),
    ("check", *_QUERY_2X2, "--region", "rhp", "--class",
     '{"kind":{"parametric_rank_one":{"x":[1,2],"y":[1,2],"tau":[1]}}}'),
    ("check", *_QUERY_2X2, "--region", '{"kind":5}', "--class", "pos_diag"),
    ("certify", "--matrix", "[[1,0],[0,1]]", "--kind", "block", "--partition", "5"),
    ("certify", "--matrix", "[[1,0],[0,1]]", "--kind", "block",
     "--partition", '[[1],["a"]]'),
    ("check", *_QUERY_2X2, "--region", "rhp", "--class", '{"kind":{"alpha_scalar":[[1.0,2.0]]}}'),
    # each was once truncated to an integer: theta (0, 1), rank 1, order 2, order 1
    ("check", *_QUERY_2X2, "--region", "rhp", "--class", '{"kind":{"theta_ordered":[1.5,2]}}'),
    ("check", *_QUERY_2X2, "--region", "rhp", "--class",
     '{"kind":{"rank_k_positive":1.5},"n":2}'),
    ("check", *_QUERY_2X2, "--region", "rhp", "--class", '{"kind":"pos_diag","n":2.7}'),
    ("check", *_QUERY_2X2, "--region", "rhp", "--class", '{"kind":"pos_diag","n":true}'),
    # each entry was once read as its sign: signs (1, -1)
    ("check", *_QUERY_2X2, "--region", "rhp", "--class", '{"kind":{"sign_diag":[0.5,-2]}}'),
])
def test_a_malformed_wire_spec_exits_64_with_one_error_line(capsys, argv):
    # each once raised TypeError or IndexError out of main, the last from
    # the identity check, which indexed with the float block (0.0, 1.0)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (64, "")
    assert captured.err.startswith("error: malformed ") and captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_check_refutes_a_huge_scalar_over_the_disk(capsys):
    # the escape's first sample overflows at seed 42: it once exited 64
    code, out = run(capsys, "check", "--matrix", "[[1e306]]", "--region", "disk",
                    "--class", "pos_diag", "--op", "mul")
    assert code == 1 and json.loads(out)["status"] == "refuted"


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_certify_rejects_a_budget_below_one(capsys, budget):
    # stabilize once printed {"evaluations":0,"found":false} with exit 2;
    # every query command rejects the budget where the engine checks it
    query = ("--region", "rhp", "--class", "pos_diag", "--op", "mul")
    for cmd in (("check", *query), ("falsify", *query), ("stabilize", *query)):
        code, out = run(capsys, *cmd, "--matrix", "[[1,0],[0,1]]", "--budget", budget)
        assert (code, out) == (64, ""), cmd
    # the certificate search stops by its own rule and takes no budget
    for value in (budget, "5"):
        code, out = run(capsys, "certify", "--kind", "diagonal", "--matrix",
                        "[[1,0],[0,1]]", "--budget", value)
        assert (code, out) == (64, "")


def test_inputs_near_the_float_limit_give_strict_json_or_exit_64(capsys):
    # ||A||_F once overflowed in the diagonal search, which printed
    # "best_min_eig":NaN and left check UNKNOWN after its whole budget
    huge = "[[1e200,0],[0,1e200]]"
    code, out = run(capsys, "certify", "--matrix", huge, "--kind", "diagonal")
    assert code == 0 and json.loads(out)["best_min_eig"] == 2e200
    code, out = run(capsys, "check", "--matrix", huge, "--region", "rhp",
                    "--class", "pos_diag", "--op", "mul")
    assert code == 0 and json.loads(out)["status"] == "certified"
    # the Stein form overflows at P = I: no finite value to report
    code = main(["certify", "--matrix", huge, "--kind", "stein"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (64, "")
    assert captured.err == "error: the certified form overflowed; rescale the inputs\n"


def test_one_parser_serves_interleaved_calls(files, capsys):
    # the parser is built once; a call, even a failed one, leaves nothing
    # behind that changes the next
    from dgstab import cli

    calls = [("check", "--matrix", files["bad2"], "--region", "rhp", "--class",
              "pos_diag", "--op", "mul", "--seed", "7"),
             ("check", "--matrix", files["id2"], "--region", "rhp", "--class",
              "pos_diag"),
             ("certify", "--matrix", files["hard2"], "--kind", "diagonal"),
             ("check", "--matrix", files["hard2"], "--region", "rhp", "--class",
              "pos_diag", "--op", "mul", "--budget", "200")]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append((main(list(argv)), capsys.readouterr()))
    assert [code for code, _ in alone] == [1, 64, 2, 2]
    parser = cli._build_parser()
    together = [(main(list(argv)), capsys.readouterr()) for argv in calls]
    assert together == alone
    assert cli._build_parser() is parser


def test_csv_matrix_and_inertia(files, capsys):
    code, out = run(capsys, "inertia", "--matrix", files["diag3"],
                    "--region", "rhp")
    assert code == 0
    assert json.loads(out) == {"i_plus": 1, "i_zero": 1, "i_minus": 1}


def test_inline_matrix(capsys):
    code, out = run(capsys, "inertia", "--matrix",
                    '{"n": 2, "data": [[1, 0], [0, -1]]}', "--region", "rhp")
    assert code == 0
    assert json.loads(out) == {"i_plus": 1, "i_zero": 0, "i_minus": 1}


def test_inertia_validates_its_matrix_as_check_does(capsys):
    # numpy's "Array must not contain infs or NaNs" and "Last 2
    # dimensions of the array must be square" once reached the user
    for matrix, message in (("[[NaN]]", "matrix contains non-finite entries"),
                            ("[[1,2,3]]", "matrix must be square, got shape (1, 3)")):
        for argv in (["inertia", "--matrix", matrix, "--region", "rhp"],
                     ["check", "--matrix", matrix, "--region", "rhp", "--class", "pos_diag",
                      "--op", "mul"]):
            assert main(argv) == 64
            assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("matrix, cls, settings, message", [
    ("[[NaN]]", "pos_diag", (), "matrix contains non-finite entries"),
    ("[[1,2,3]]", "pos_diag", (), "matrix must be square, got shape (1, 3)"),
    ("[[1,0],[0,1]]", '{"kind": "pos_diag", "n": 3}', (),
     "matrix order does not match class order"),
    ("[[1,0],[0,1]]", "pos_diag", ("--seed", "-1"), "seed must be an integer >= 0"),
])
def test_every_query_command_rejects_an_invalid_query_as_check_does(
        capsys, matrix, cls, settings, message):
    # plot once drew an empty cloud for [[NaN]] and exited 0; stabilize
    # and plot reported numpy's "operand shapes ... are incompatible" for
    # a class of another order; check and total accepted seed -1
    for command in ("check", "falsify", "stabilize", "total", "plot"):
        code = main([command, "--matrix", matrix, "--region", "rhp", "--class", cls,
                     "--op", "mul", *settings])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (64, "", f"error: {message}\n"), command


def test_certify_subcommand(files, capsys):
    code, out = run(capsys, "certify", "--matrix", files["id2"],
                    "--kind", "diagonal")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"]
    assert payload["certificate"]["kind"] == "diagonal_lyapunov"
    assert any(
        t["class"]["kind"] == "pos_diag" and t["op"]["op"] == "mul"
        for t in payload["implied_triples"]
    )

    code, out = run(capsys, "certify", "--matrix", files["hard2"],
                    "--kind", "diagonal")
    assert code == 2
    assert not json.loads(out)["found"]


def test_certify_kinds(files, capsys):
    for name, kind in (("diagonal", "diagonal_lyapunov"), ("stein", "stein_diagonal"),
                       ("alpha_scalar", "alpha_scalar_lyapunov"),
                       ("block", "block_lyapunov"), ("identity", "identity_lyapunov")):
        matrix = files["id2"] if name != "stein" else json.dumps(
            serialize.matrix_to_json(0.5 * np.eye(2)))
        code, out = run(capsys, "certify", "--matrix", matrix, "--kind", name,
                        "--partition", "[[1], [2]]")
        assert code == 0, name
        assert json.loads(out)["certificate"]["kind"] == kind
    # the block kinds take their witness blocks from --partition
    for name in ("alpha_scalar", "block"):
        code, out = run(capsys, "certify", "--matrix", files["id2"], "--kind", name)
        assert (code, out) == (64, "")


def test_falsify_subcommand(files, capsys):
    code, out = run(capsys, "falsify", "--matrix", files["bad2"], "--region",
                    "rhp", "--class", "pos_diag", "--op", "mul",
                    "--budget", "100000")
    assert code == 1
    assert json.loads(out)["status"] == "refuted"


@pytest.mark.filterwarnings("error")
def test_check_near_the_float_limit_ends_unknown(capsys):
    # the falsifier once passed overflowed compositions to eigvals
    code, out = run(capsys, "check", "--matrix", "[[1e308,0],[0,1e308]]", "--region",
                    "rhp", "--class", "spd", "--op", "mul", "--budget", "50")
    assert code == 2
    v = json.loads(out)
    assert v["status"] == "unknown"
    assert v["provenance"][-1].endswith("compositions overflowed and were skipped)")


def test_stabilize_subcommand(files, capsys):
    circ = files["tmp"] / "circ3.json"
    circ.write_text(json.dumps(serialize.matrix_to_json(
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    )))
    code, out = run(capsys, "stabilize", "--matrix", str(circ), "--region",
                    "rhp", "--class", "diag", "--op", "mul",
                    "--budget", "3000")
    assert code == 2
    assert not json.loads(out)["found"]


def test_total_subcommand(files, capsys):
    code, out = run(capsys, "total", "--matrix", files["id2"], "--region", "rhp",
                    "--class", "pos_diag", "--op", "mul", "--budget", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "certified"
    assert set(payload["subsets"]) == {"1", "2", "1,2"}


def test_total_keys_follow_json_string_order_at_n_10(files, capsys):
    # at n = 10 the string order of the 1-based keys puts "1,10" before
    # "1,2"; at n <= 9 it agrees with the index order
    r = np.random.default_rng(5)
    k = r.standard_normal((10, 10))
    a = np.diag(r.uniform(1.0, 2.0, 10)) + 0.1 * (k - k.T)
    matrix = json.dumps(serialize.matrix_to_json(a))
    argv = ("total", "--matrix", matrix, "--region", "rhp", "--class", "pos_diag",
            "--op", "mul")
    code, out = run(capsys, *argv)
    assert code == 0
    keys = list(json.loads(out)["subsets"])
    assert len(keys) == 2 ** 10 - 1 and keys == sorted(keys)
    assert keys.index("1,10") < keys.index("1,2")
    report = engine.total_stability(engine.Query(a, regions.right_half_plane(),
                                                 dg_classes.pos_diag(10), algebra.MUL))
    assert _first_difference(out, _text(report)) is None
    path = files["tmp"] / "total.json"
    assert run(capsys, *argv, "--out", str(path)) == (0, "")
    assert _first_difference(path.read_text(encoding="utf-8"), out) is None


def test_verdicts_serialize_to_the_bytes_of_their_dict_view(files, capsys):
    verdicts = []
    for name, budget, status in (("id2", 100, "certified"), ("bad2", 100_000, "refuted"),
                                 ("hard2", 200, "unknown")):
        argv = ("--matrix", files[name], "--region", "rhp", "--class", "pos_diag",
                "--op", "mul", "--budget", str(budget))
        a = serialize.load_matrix_text(Path(files[name]).read_text(encoding="utf-8"))
        q = engine.Query(a, regions.right_half_plane(), dg_classes.pos_diag(2),
                         algebra.MUL, budget=budget)
        for command, fn in (("check", engine.decide), ("falsify", engine.falsify)):
            v = fn(q)
            _, out = run(capsys, command, *argv)
            assert out == serialize.dumps(reference_serialize.verdict_to_json(v))
            verdicts.append(v)
        assert verdicts[-2].status.value == status
    # json's ASCII escapes of a quote, a backslash, a newline and sigma
    verdicts.append(engine.Verdict(engine.VerdictStatus.UNKNOWN,
                                   provenance=('say "x"', "a\\b", "two\nlines", "σ(G∘A)")))
    for v in verdicts:
        assert serialize.dumps(v) == serialize.dumps(reference_serialize.verdict_to_json(v))
    assert "\\u03c3" in serialize.dumps(verdicts[-1])


def test_certificates_with_every_optional_field_are_the_references():
    part = dg_classes.Partition.from_sizes([2, 1])
    p = np.array([[2.0, -0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    triples = [
        (regions.unit_disk(), dg_classes.vertex_diag(3), algebra.MUL),
        (regions.hill_region([[0.0, 1.0], [1.0, 0.0]], "nonnegative"),
         dg_classes.alpha_scalar(part), algebra.BinaryOp(algebra.OpKind.ADD, algebra.Side.RIGHT)),
        (regions.sector(0.7), dg_classes.explicit_list([np.eye(3), 2 * np.eye(3)]),
         algebra.HADAMARD),
    ]
    certs = [
        certify.Certificate(certify.CertKind.BLOCK_LYAPUNOV, p, 0.25, partition=part),
        certify.Certificate(certify.CertKind.ALPHA_SCALAR_LYAPUNOV, np.diag([1.0, 1.0, 1.0]),
                            np.nan, partition=part),
        certify.Certificate(certify.CertKind.HILL, p, -0.0, coeffs=((1.0, 0.0), (0.0, -1.0))),
    ] + [certify.Certificate(certify.CertKind.EXHAUSTIVE, None, m, triple=t, members_checked=k)
         for t, m, k in zip(triples, (0.125, np.nan, 1e-320), (8, 3, 2))]
    for cert in certs:
        view = serialize.certificate_to_json(cert)
        assert type(view) is dict
        assert serialize.dumps(view) == serialize.dumps(
            reference_serialize.certificate_to_json(cert)), cert.kind
        v = engine.Verdict(engine.VerdictStatus.CERTIFIED, certificate=cert, provenance=("x",))
        assert type(serialize.verdict_to_json(v)) is dict
        assert (serialize.dumps(v) == serialize.dumps(serialize.verdict_to_json(v))
                == serialize.dumps(reference_serialize.verdict_to_json(v))), cert.kind
    texts = "".join(serialize.dumps(serialize.certificate_to_json(c)) for c in certs)
    for field in ('"partition":', '"coefficients":', '"triple":', '"members_checked":',
                  '"hill":', '"sector":', "NaN", "-0.0", "1e-320"):
        assert field in texts, field
    assert all("witness" not in serialize.certificate_to_json(c) for c in certs[3:])


def test_laws_subcommand(capsys):
    code, out = run(capsys, "laws", "--trials", "50", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    for op_name in ("add", "mul", "hadamard"):
        row = payload[op_name]
        for law, cell in row.items():
            assert cell["holds"] == cell["expected"], (op_name, law)
            if not cell["expected"]:
                assert cell["has_witness"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_laws_rejects_trials_below_one(capsys, trials):
    # with no trial every cell once read "holds": true, even the seven
    # that EXPECTED_LAWS marks as failing
    code, out = run(capsys, "laws", "--trials", trials, "--n", "3")
    assert (code, out) == (64, "")


def test_plot_rejects_negative_samples(capsys):
    # it once drew an empty cloud and exited 0
    code, out = run(capsys, "plot", "--matrix", "[[1,0],[0,1]]", "--region", "rhp",
                    "--class", "pos_diag", "--op", "mul", "--samples", "-5")
    assert (code, out) == (64, "")


def test_plot_subcommand(files, capsys, tmp_path):
    out_file = tmp_path / "cloud.svg"
    code, _ = run(capsys, "plot", "--matrix", files["id2"], "--region", "rhp",
                  "--class", "pos_diag", "--op", "mul", "--samples", "50",
                  "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    # identity times positive diagonal: all eigenvalues on the positive
    # real axis, drawn as one circle per eigenvalue plus the axis lines
    assert text.count("<circle") == 100

    code, _ = run(capsys, "plot", "--matrix", files["id2"], "--region",
                  "unit_disk", "--class", "pos_diag", "--op", "mul",
                  "--samples", "0", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<svg") and "</svg>" in text


@pytest.mark.parametrize("region, overlay", [
    ("real_axis", ["line"]),
    ("ray", ["line"]),
    ("punctured_plane", ["circle"]),
    ('{"kind":{"sector":0.8}}', ["line", "line"]),
])
def test_plot_draws_each_region_overlay(capsys, region, overlay):
    code, out = run(capsys, "plot", "--matrix", "[[1,2],[-3,1]]", "--region", region,
                    "--class", "pos_diag", "--op", "mul", "--samples", "10")
    assert code == 0 and out.rstrip().endswith("</svg>")
    assert re.findall(r'<(\w+) [^>]*stroke="#c33"', out) == overlay
    if region == "ray":  # the ray starts where the vertical axis runs, at the origin
        _, vertical_x1, ray_x1 = re.findall(r'<line x1="([-0-9.]+)"', out)
        assert ray_x1 == vertical_x1


@pytest.mark.filterwarnings("error")
def test_check_and_plot_skip_compositions_that_overflow(capsys, tmp_path):
    # both once exited 64 with "Array must not contain infs or NaNs"
    code, out = run(capsys, "check", "--matrix", "[[1e10]]", "--region", "rhp", "--class",
                    '{"kind":{"explicit_list":[[[1e300]]]},"n":1}', "--op", "mul")
    assert code == 2 and json.loads(out)["status"] == "unknown"
    assert json.loads(out)["provenance"][-1] == (
        "exhaustive enumeration inconclusive: 1 of 1 compositions overflowed and were skipped")
    a = np.diag([1e306, 1.0])
    out_file = tmp_path / "cloud.svg"
    code, _ = run(capsys, "plot", "--matrix", "[[1e306,0],[0,1]]", "--region", "rhp",
                  "--class", "pos_diag", "--op", "mul", "--samples", "20",
                  "--out", str(out_file))
    assert code == 0
    # one circle per eigenvalue of each finite composition
    gs = dg_classes.sample_batch(dg_classes.pos_diag(2),
                                 np.random.default_rng(np.random.SeedSequence(42)), 20)
    with np.errstate(over="ignore"):
        finite = int(np.isfinite(gs @ a).all(axis=(1, 2)).sum())
    assert 0 < finite < 20
    assert out_file.read_text().count("<circle") == 2 * finite


@pytest.mark.filterwarnings("error")
def test_stabilize_skips_compositions_that_overflow(capsys):
    # it once exited 64 with "Array must not contain infs or NaNs"
    code, out = run(capsys, "stabilize", "--matrix", "[[1e308,0],[0,-1e308]]", "--region",
                    "rhp", "--class", "pos_diag", "--op", "mul", "--budget", "50")
    assert code == 2 and json.loads(out) == {"evaluations": 50, "found": False}


def test_plot_deterministic(files, capsys, tmp_path):
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for f in (f1, f2):
        run(capsys, "plot", "--matrix", files["id2"], "--region", "rhp",
            "--class", "pos_diag", "--op", "mul", "--samples", "20",
            "--seed", "11", "--out", str(f))
    assert f1.read_text() == f2.read_text()


def test_exit_code_matches_status_on_regression_queries(tmp_path, capsys):
    rng = np.random.default_rng(77)
    status_to_code = {"certified": 0, "refuted": 1, "unknown": 2}
    for i in range(100):
        a = rng.uniform(-2.0, 2.0, (2, 2))
        p = tmp_path / f"m{i}.json"
        p.write_text(json.dumps(serialize.matrix_to_json(a)))
        code, out = run(capsys, "check", "--matrix", str(p), "--region", "rhp",
                        "--class", "pos_diag", "--op", "mul",
                        "--budget", "300", "--seed", str(i))
        assert code == status_to_code[json.loads(out)["status"]]


def test_plot_positive_diagonal_cloud_sits_on_real_axis(files, capsys, tmp_path):
    # identity times positive diagonal has a purely real spectrum, so
    # every sample point lands on the horizontal axis line
    out_file = tmp_path / "axis.svg"
    run(capsys, "plot", "--matrix", files["id2"], "--region", "rhp",
        "--class", "pos_diag", "--op", "mul", "--samples", "30",
        "--out", str(out_file))
    import re

    text = out_file.read_text()
    ys = {m.group(1) for m in re.finditer(r'<circle [^>]*cy="([0-9.]+)"', text)}
    assert len(ys) == 1  # all eigenvalue dots share one vertical position


def test_json_region_and_class_specs(files, capsys):
    code, out = run(
        capsys, "check", "--matrix", files["id2"],
        "--region", '{"kind": {"sector": 0.8}, "boundary_tol": 1e-9}',
        "--class", '{"kind": {"theta_ordered": [1, 2]}}',
        "--op", "mul", "--budget", "500",
    )
    assert code in (0, 2)
    payload = json.loads(out)
    assert payload["status"] in ("certified", "unknown")


def test_roundtrip_serialization():
    import dgstab as dg
    from dgstab.classes import Partition

    for region in (dg.right_half_plane(), dg.sector(0.5),
                   dg.hill_region([[0.0, 1.0], [1.0, 0.0]])):
        assert serialize.region_from_json(
            serialize.region_to_json(region)
        ).geometry() == region.geometry()
    for cls in (dg.pos_diag(3), dg.vertex_diag(2),
                dg.alpha_scalar(Partition.from_sizes([2, 1])),
                dg.theta_ordered([2, 0, 1]),
                dg.box_diag([0, 0], [1, 2]),
                dg.rank_k_positive(3, 2),
                dg.sign_diag([1, -1, 0]),
                dg.parametric_rank_one([1, 0], [0, 1], (-1.0, 1.0))):
        assert serialize.class_from_json(
            serialize.class_to_json(cls), cls.order
        ) == cls


def test_matrices_serialize_to_the_bytes_of_a_float_per_entry():
    # the former per-entry conversion, the reference for the canonical text
    values = [-0.0, 5e-324, 1e308, 1 / 3, 1.0000000000000002]
    m = np.array([np.roll(values, i) for i in range(len(values))])
    old = {"n": len(values), "data": [[float(v) for v in row] for row in m]}
    text = serialize.dumps(serialize.matrix_to_json(m))
    assert text == serialize.dumps(old)
    assert "-0.0" in text and "5e-324" in text and "1e+308" in text
    members = serialize.class_to_json(dg_classes.explicit_list([m, -m]))
    assert serialize.dumps(members) == serialize.dumps({"kind": {"explicit_list": [
        old["data"], [[float(v) for v in row] for row in -m]]}})


def test_every_class_round_trips_through_canonical_json():
    for n in range(1, 5):
        for cls in factory_classes(n):
            text = serialize.dumps(serialize.class_to_json(cls))
            assert serialize.class_from_json(json.loads(text)) == cls, text


@pytest.mark.parametrize("spec, n, message", [
    ("foo", None, "class spec needs a matrix order"),
    ("foo", 2, "unrecognized class name 'foo'"),
    ({"kind": {"rank_k_positive": 1}}, None, "rank_k_positive needs a matrix order"),
    ({"kind": {"sum_rank_one_positive": 1}}, None,
     "sum_rank_one_positive needs a matrix order"),
    ({"kind": {"bogus": 1}}, 2, "unrecognized class spec {'kind': {'bogus': 1}}"),
])
def test_class_spec_errors(spec, n, message):
    with pytest.raises(ValueError) as err:
        serialize.class_from_json(spec, n)
    assert str(err.value) == message
