"""Command-line interface: every subcommand, exit codes, determinism."""

import csv
import json
import math
import re

import numpy as np
import pytest

from corrldp import ordering
from corrldp.attack import AttackConfig, attack_population, population_estimation_error
from corrldp.cli import _read_belief_csv, main
from corrldp.data import CorrelationModel, compute_correlation_model, load_genotype_matrix
from corrldp.kinship import FamilyShape, FamilyState, ShareRecord, max_budget_general
from corrldp.mechanism import MechanismConfig
from support import reference_belief_csv, reference_read_belief_csv, with_first_conditional


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _gen(tmp_path, capsys, name="truth.txt", n=12, l=5, extra=()):
    path = tmp_path / name
    code, out, err = run_cli(
        ["gen", "--n", str(n), "--l", str(l), "--maf", "0.3", "--rho", "0.7",
         "--seed", "1", "--out", str(path), *extra],
        capsys,
    )
    assert code == 0 and err == ""
    assert f"wrote {path}" in out
    return path


def test_gen_writes_loadable_deterministic_file(tmp_path, capsys):
    path = _gen(tmp_path, capsys)
    m = load_genotype_matrix(path)
    assert (m.n, m.l) == (12, 5)
    first = path.read_bytes()
    _gen(tmp_path, capsys)
    assert path.read_bytes() == first
    other = _gen(tmp_path, capsys, name="other.txt", extra=())
    # same flags, same bytes regardless of output name
    assert other.read_bytes() == first


def test_gen_per_column_maf(tmp_path, capsys):
    path = tmp_path / "cols.txt"
    code, _, _ = run_cli(
        ["gen", "--n", "30", "--l", "3", "--maf", "0.5,0.1,0.4", "--seed", "0",
         "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert load_genotype_matrix(path).l == 3


def test_corr_round_trips_model(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    out = tmp_path / "model.json"
    code, stdout, _ = run_cli(
        ["corr", "--data", str(data), "--pseudo-count", "0.5", "--out", str(out)], capsys
    )
    assert code == 0 and f"wrote {out}" in stdout
    model = CorrelationModel.from_json(out)
    direct = compute_correlation_model(load_genotype_matrix(data), 0.5)
    assert np.allclose(model.cond, direct.cond, equal_nan=True)
    assert np.allclose(model.marginals, direct.marginals)


def test_perturb_rr_and_proposed(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    for mech, extra in (("rr", ()), ("proposed", ("--tau-hat", "0.2", "--gamma-hat", "0.4"))):
        out = tmp_path / f"{mech}.txt"
        code, stdout, _ = run_cli(
            ["perturb", "--data", str(data), "--mechanism", mech,
             "--epsilon", "1.0", "--seed", "3", "--out", str(out), *extra],
            capsys,
        )
        assert code == 0 and f"wrote {out}" in stdout
        shared = load_genotype_matrix(out)
        assert (shared.n, shared.l) == (12, 5)
        first = out.read_bytes()
        run_cli(
            ["perturb", "--data", str(data), "--mechanism", mech,
             "--epsilon", "1.0", "--seed", "3", "--out", str(out), *extra],
            capsys,
        )
        assert out.read_bytes() == first


def test_perturb_rejects_nonrandom_order(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["perturb", "--data", str(data), "--epsilon", "1.0",
              "--order", "greedy", "--out", str(tmp_path / "x.txt")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_attack_writes_normalized_beliefs(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    corr = tmp_path / "model.json"
    run_cli(["corr", "--data", str(data), "--out", str(corr)], capsys)
    reported = tmp_path / "reported.txt"
    run_cli(
        ["perturb", "--data", str(data), "--epsilon", "1.0", "--seed", "5",
         "--out", str(reported)],
        capsys,
    )
    beliefs = tmp_path / "beliefs.csv"
    code, stdout, _ = run_cli(
        ["attack", "--data", str(reported), "--corr", str(corr),
         "--epsilon", "1.0", "--tau", "0.2", "--gamma", "0.4", "--out", str(beliefs)],
        capsys,
    )
    assert code == 0 and f"wrote {beliefs}" in stdout
    with open(beliefs, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12 * 5
    assert set(rows[0]) == {"row", "snp", "p0", "p1", "p2", "elim0", "elim1", "elim2", "fallback"}
    for record in rows:
        total = sum(float(record[f"p{v}"]) for v in range(3))
        assert total == pytest.approx(1.0, abs=1e-9)
        for v in range(3):
            if record[f"elim{v}"] == "1" and record["fallback"] == "0":
                assert float(record[f"p{v}"]) == 0.0


def _reported_values_ruled_out(beliefs, reported):
    """Cells outside fallback whose reported value the belief CSV rules out."""
    values = load_genotype_matrix(reported).values
    with open(beliefs, newline="") as fh:
        return sum(
            record["fallback"] == "0"
            and record[f"elim{values[int(record['row']), int(record['snp'])]}"] == "1"
            for record in csv.DictReader(fh)
        )


def test_attack_replay_under_the_perturb_order(tmp_path, capsys):
    data = _gen(tmp_path, capsys, n=40, l=30)
    corr, reported, order = tmp_path / "model.json", tmp_path / "reported.txt", tmp_path / "order.txt"
    run_cli(["corr", "--data", str(data), "--out", str(corr)], capsys)
    code, stdout, _ = run_cli(
        ["perturb", "--data", str(data), "--corr", str(corr), "--epsilon", "1.0",
         "--tau-hat", "0.2", "--gamma-hat", "0.4", "--seed", "4", "--out", str(reported),
         "--order-out", str(order)],
        capsys,
    )
    assert code == 0 and f"wrote {order}" in stdout
    assert sorted(int(i) for i in order.read_text().split()) == list(range(30))
    # gamma 1 switches the attacker's own eliminations off, leaving the replay
    replay = ["attack", "--data", str(reported), "--corr", str(corr), "--epsilon", "1.0",
              "--gamma", "1.0", "--tau-hat", "0.2", "--gamma-hat", "0.4"]
    beliefs = tmp_path / "beliefs.csv"
    code, _, err = run_cli(replay + ["--order", str(order), "--out", str(beliefs)], capsys)
    assert code == 0 and err == ""
    assert _reported_values_ruled_out(beliefs, reported) == 0
    # the same replay under the identity order rules out values that were reported
    identity = tmp_path / "identity.txt"
    identity.write_text(" ".join(str(i) for i in range(30)) + "\n")
    code, _, _ = run_cli(replay + ["--order", str(identity), "--out", str(beliefs)], capsys)
    assert code == 0 and _reported_values_ruled_out(beliefs, reported) > 0


def test_attack_order_flag_errors(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    corr, reported = tmp_path / "model.json", tmp_path / "reported.txt"
    run_cli(["corr", "--data", str(data), "--out", str(corr)], capsys)
    run_cli(["perturb", "--data", str(data), "--epsilon", "1.0", "--out", str(reported)], capsys)
    base = ["attack", "--data", str(reported), "--corr", str(corr), "--epsilon", "1.0",
            "--out", str(tmp_path / "beliefs.csv")]
    known = ["--tau-hat", "0.2", "--gamma-hat", "0.5"]
    code, _, err = run_cli(base + known, capsys)
    assert code == 2 and "--order" in err
    # a file that does not parse is an input error (1); a parsed order that
    # is not a permutation of the data's SNPs is a usage error (2)
    for name, text, expect in (
        ("word.txt", "0 1 x 3 4", (1, "error")),
        ("short.txt", "0 1 2", (2, "usage error")),
        ("twice.txt", "0 0 1 2 3", (2, "usage error")),
    ):
        (tmp_path / name).write_text(text)
        code, _, err = run_cli(base + known + ["--order", str(tmp_path / name)], capsys)
        assert code == expect[0] and err.startswith(f"{expect[1]}: {tmp_path / name}: "), name
    (tmp_path / "good.txt").write_text("4 3 2 1 0\n")
    code, _, err = run_cli(base + ["--order", str(tmp_path / "good.txt")], capsys)
    assert code == 2 and "--tau-hat" in err
    code, _, err = run_cli(
        ["perturb", "--data", str(data), "--mechanism", "rr", "--epsilon", "1.0",
         "--out", str(tmp_path / "rr.txt"), "--order-out", str(tmp_path / "o.txt")],
        capsys,
    )
    assert code == 2 and "--order-out" in err


def test_model_of_another_width_names_both_files(tmp_path, capsys):
    data = _gen(tmp_path, capsys, l=5)
    wide, model = _gen(tmp_path, capsys, name="wide.txt", l=7), tmp_path / "wide.json"
    run_cli(["corr", "--data", str(wide), "--out", str(model)], capsys)
    out = str(tmp_path / "out.txt")
    commands = [
        ["perturb", "--data", str(data), "--corr", str(model), "--epsilon", "1.0", "--out", out],
        ["attack", "--data", str(data), "--corr", str(model), "--epsilon", "1.0", "--out", out],
    ] + [
        ["order", "--data", str(data), "--corr", str(model), "--epsilon", "1.0", "--order", strategy]
        for strategy in ("random", "greedy", "optimal")
    ]
    for argv in commands:
        code, stdout, err = run_cli(argv, capsys)
        assert code == 2 and stdout == "", argv
        assert f"--corr {model} covers 7 SNPs, --data {data} has 5" in err, argv


@pytest.mark.parametrize(
    "n, l, pseudo_count, gamma, replay",
    [(12, 5, 0.0, 0.4, False), (7, 1, 0.0, 0.5, False), (40, 30, 0.5, 0.01, False), (40, 30, 0.0, 0.4, True)],
)
def test_belief_file_matches_csv_writer(tmp_path, capsys, n, l, pseudo_count, gamma, replay):
    data = _gen(tmp_path, capsys, n=n, l=l)
    corr, reported, order = tmp_path / "model.json", tmp_path / "reported.txt", tmp_path / "order.txt"
    run_cli(["corr", "--data", str(data), "--pseudo-count", str(pseudo_count), "--out", str(corr)], capsys)
    run_cli(["perturb", "--data", str(data), "--corr", str(corr), "--epsilon", "1.0", "--seed", "5",
             "--tau-hat", "0.2", "--gamma-hat", "0.4", "--out", str(reported), "--order-out", str(order)],
            capsys)
    known = ["--tau-hat", "0.2", "--gamma-hat", "0.4", "--order", str(order)] if replay else []
    beliefs = tmp_path / "beliefs.csv"
    code, _, err = run_cli(
        ["attack", "--data", str(reported), "--corr", str(corr), "--epsilon", "1.0",
         "--gamma", str(gamma), "--out", str(beliefs), *known],
        capsys,
    )
    assert code == 0 and err == ""
    values = load_genotype_matrix(reported).values
    config = AttackConfig(
        epsilon_known=1.0, tau=0.2, gamma=gamma, mechanism_params_known=(0.2, 0.4) if replay else None
    )
    assumed = tuple(int(i) for i in order.read_text().split()) if replay else None
    belief = attack_population(values, CorrelationModel.from_json(corr), config, assumed_order=assumed)
    if gamma < 0.1:
        assert belief.fallback.any()
    reference = tmp_path / "reference.csv"
    reference_belief_csv(reference, belief.probs, belief.eliminated, belief.fallback)
    assert beliefs.read_bytes() == reference.read_bytes()
    probs = _read_belief_csv(beliefs, n, l)
    assert probs.tobytes() == reference_read_belief_csv(beliefs, n, l).tobytes()
    assert probs.tobytes() == belief.probs.tobytes()


def test_malformed_model_file_exits_1(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    corr = tmp_path / "model.json"
    run_cli(["corr", "--data", str(data), "--out", str(corr)], capsys)
    text = corr.read_text()
    payload = json.loads(text)
    cond = np.nan_to_num(np.array(payload["cond"], dtype=float))
    bad = tmp_path / "bad.json"
    for content, message in (
        (text[:-10], "malformed correlation model"),
        (json.dumps(dict(payload, marginals=payload["marginals"][:-1])), "marginals must be"),
        (json.dumps(dict(payload, cond=(cond / 2).tolist())), "must sum to 1"),
        # tokens that parse, to a value the range check refuses
        (with_first_conditional(text, "1e999"), "must lie in [0, 1]"),
        (with_first_conditional(text, "-1e-5"), "must lie in [0, 1]"),
        (with_first_conditional(text, "Infinity"), "must lie in [0, 1]"),
    ):
        bad.write_text(content)
        code, out, err = run_cli(
            ["attack", "--data", str(data), "--corr", str(bad), "--epsilon", "1.0",
             "--out", str(tmp_path / "beliefs.csv")],
            capsys,
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: ") and message in err, err


def test_malformed_belief_file_exits_1_before_printing(tmp_path, capsys):
    data = _gen(tmp_path, capsys, n=2, l=2)
    header = "row,snp,p0,p1,p2,elim0,elim1,elim2,fallback\n"
    good = ["0,0,1.0,0.0,0.0,0,0,0,0\n", "0,1,0.5,0.5,0.0,0,0,0,0\n",
            "1,0,0.0,1.0,0.0,0,0,0,0\n", "1,1,0.0,0.0,1.0,0,0,0,0\n"]
    beliefs = tmp_path / "beliefs.csv"
    argv = ["eval", "--truth", str(data), "--reported", str(data), "--epsilon", "1.0",
            "--beliefs", str(beliefs)]
    beliefs.write_text(header + "".join(good))
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and "e_attack=" in out
    for content, message in (
        (header + "".join(good[:3]) + "1,1,0.0\n", "malformed belief table"),
        (header + "".join(good[:3]) + "1,1,x,0.0,1.0,0,0,0,0\n", "malformed belief table"),
        ("row,snp,p0,p1\n" + "".join(good), "belief header"),
        ("", "belief header"),
        (header + "".join(good[:3]) + "1,2,0.0,0.0,1.0,0,0,0,0\n", r"belief row \(1, 2\) outside 2x2"),
        (header + "".join(good[:3]), "does not cover"),
    ):
        beliefs.write_text(content)
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == "", content
        assert err.startswith(f"error: {beliefs}: ")
        assert re.search(message, err), err


def test_eval_shape_mismatch_names_both_files(tmp_path, capsys):
    truth = _gen(tmp_path, capsys, n=8, l=4)
    reported = _gen(tmp_path, capsys, name="reported.txt", n=7, l=1)
    beliefs = tmp_path / "never-read.csv"
    code, out, err = run_cli(
        ["eval", "--truth", str(truth), "--reported", str(reported), "--epsilon", "1.0",
         "--beliefs", str(beliefs)],
        capsys,
    )
    assert code == 2 and out == ""
    assert f"--reported {reported} has shape (7, 1)" in err
    assert f"--truth {truth} has shape (8, 4)" in err


def test_eval_reports_scores_and_belief_error(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    corr = tmp_path / "model.json"
    run_cli(["corr", "--data", str(data), "--out", str(corr)], capsys)
    reported = tmp_path / "reported.txt"
    run_cli(
        ["perturb", "--data", str(data), "--epsilon", "1.0", "--seed", "5",
         "--out", str(reported)],
        capsys,
    )
    beliefs = tmp_path / "beliefs.csv"
    run_cli(
        ["attack", "--data", str(reported), "--corr", str(corr), "--epsilon", "1.0",
         "--tau", "0.2", "--gamma", "0.4", "--out", str(beliefs)],
        capsys,
    )
    code, stdout, _ = run_cli(
        ["eval", "--truth", str(data), "--reported", str(reported),
         "--epsilon", "1.0", "--beliefs", str(beliefs)],
        capsys,
    )
    assert code == 0
    values = dict(line.split("=", 1) for line in stdout.strip().splitlines())
    for key in ("e_rr", "e_attack", "a_direct", "a_direct_yes", "a_direct_no",
                "a_rr_estimated", "a_rr_estimated_yes", "a_rr_estimated_no"):
        assert key in values, key
    # the belief-file score equals the in-process attack score exactly
    truth = load_genotype_matrix(data)
    belief = attack_population(
        load_genotype_matrix(reported).values,
        CorrelationModel.from_json(corr),
        AttackConfig(epsilon_known=1.0, tau=0.2, gamma=0.4),
    )
    assert float(values["e_attack"]) == pytest.approx(
        population_estimation_error(belief, truth.values), abs=1e-12
    )
    assert 0.0 <= float(values["e_rr"]) <= 2.0


def test_order_prints_permutation_and_utility(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    for strategy in ("random", "greedy", "optimal"):
        code, stdout, _ = run_cli(
            ["order", "--data", str(data), "--row", "2", "--epsilon", "1.0",
             "--order", strategy, "--seed", "4"],
            capsys,
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert sorted(int(i) for i in lines[0].split()) == list(range(5))
        assert lines[1].startswith("expected_utility=")
        utility = float(lines[1].split("=", 1)[1])
        assert 0.0 <= utility <= 5.0
    code, _, err = run_cli(
        ["order", "--data", str(data), "--row", "99", "--epsilon", "1.0"], capsys
    )
    assert code == 2 and "--row" in err


def test_optimal_order_preview_steps_the_solver_once_per_position(tmp_path, capsys, monkeypatch):
    data = _gen(tmp_path, capsys, l=9)
    argv = ["order", "--data", str(data), "--row", "3", "--epsilon", "1.0", "--gamma-hat", "0.3",
            "--order", "optimal"]
    key = ordering._ExactSolver.key
    calls = []

    def counted(self, *args):
        calls.append(args)
        return key(self, *args)

    # the preview looks up one memo key per position, from the loop's counters
    monkeypatch.setattr(ordering._ExactSolver, "key", counted)
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0 and len(calls) <= 9
    # the preview is the policy's action on the all-zero prefix, position by position
    matrix = load_genotype_matrix(data)
    policy, _ = ordering.optimal_order_value_iteration(
        matrix.row(3), compute_correlation_model(matrix),
        MechanismConfig(epsilon=1.0, tau_hat=0.2, gamma_hat=0.3),
    )
    prefix = []
    for _ in range(9):
        prefix.append((policy.action(prefix), 0))
    assert stdout.splitlines()[0] == " ".join(str(k) for k, _ in prefix)


def test_order_prints_utility_up_to_the_exact_cap(tmp_path, capsys, monkeypatch):
    small, large = _gen(tmp_path, capsys), _gen(tmp_path, capsys, name="large.txt", l=13)

    def printed_lines(data):
        code, stdout, _ = run_cli(
            ["order", "--data", str(data), "--epsilon", "1.0", "--order", "random"], capsys
        )
        assert code == 0
        return stdout.strip().splitlines()

    monkeypatch.setattr(ordering, "EXACT_METHOD_MAX_SNPS", 4)
    assert len(printed_lines(small)) == 1
    monkeypatch.setattr(ordering, "EXACT_METHOD_MAX_SNPS", 13)
    assert printed_lines(large)[1].startswith("expected_utility=")


def test_kinship_values(tmp_path, capsys):
    code, out, _ = run_cli(["kinship", "one-child", "--parent-budget", "1.0"], capsys)
    assert code == 0
    assert abs(float(out) - math.log((3 * math.e - 1) / 2)) < 1e-9
    code, out, _ = run_cli(["kinship", "second-child", "--epsilon", "0.5"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(0.2593631642522605, abs=1e-12)
    code, out, _ = run_cli(
        ["kinship", "indirect", "--epsilon", str(math.log(2)), "--share", "0"], capsys
    )
    assert code == 0
    assert float(out) == pytest.approx(math.log(5 / 3), abs=1e-12)
    code, out, _ = run_cli(
        ["kinship", "indirect", "--epsilon", "1.0", "--share", "1"], capsys
    )
    assert float(out) == 0.0
    code, out, _ = run_cli(
        ["kinship", "indirect", "--epsilon", "0.5", "--children", "2"], capsys
    )
    assert code == 0 and float(out) > 0.5


def test_kinship_general_solver(tmp_path, capsys):
    family = FamilyState(
        shape=FamilyShape.TWO_CHILDREN_TO_PARENT,
        budgets={"parent": 0.8, "child1": math.inf, "child2": math.inf},
        shares=(ShareRecord("child1", 0, 0, 0.8),),
    )
    path = tmp_path / "family.json"
    path.write_text(family.to_json(), encoding="utf-8")
    code, out, _ = run_cli(
        ["kinship", "general", "--family", str(path), "--snp", "0",
         "--next-sharer", "child2"],
        capsys,
    )
    assert code == 0
    assert float(out) == pytest.approx(max_budget_general(family, 0, "child2"), abs=1e-12)
    code, _, err = run_cli(
        ["kinship", "general", "--family", str(path), "--snp", "0",
         "--next-sharer", "parent"],
        capsys,
    )
    assert code == 2 and "usage error" in err


def test_malformed_family_file_exits_1(tmp_path, capsys):
    family = tmp_path / "family.json"
    no_child_budget = {"shape": "one_child_to_parent", "budgets": {"parent": 1.0}}
    for text in ("{not json", json.dumps(no_child_budget)):
        family.write_text(text, encoding="utf-8")
        code, out, err = run_cli(
            ["kinship", "general", "--family", str(family), "--snp", "0", "--next-sharer", "child"],
            capsys,
        )
        assert code == 1 and out == "", text
        assert err.startswith(f"error: {family}: "), text


def test_leakage_prints_bound(tmp_path, capsys):
    code, out, _ = run_cli(["leakage", "--zeta", "1.0", "--epsilon", "0.0"], capsys)
    assert code == 0
    assert out.strip() == "0.5"
    code, out, _ = run_cli(
        ["leakage", "--zeta", "1.0", "--epsilon", str(math.log(2))], capsys
    )
    assert float(out) == pytest.approx(2 / 3, abs=1e-12)
    code, _, err = run_cli(["leakage", "--zeta", "-1.0", "--epsilon", "1.0"], capsys)
    assert code == 2 and "usage error" in err


def test_experiment_writes_csvs(tmp_path, capsys):
    argv = [
        "experiment", "--n", "8", "--l", "4", "--maf", "0.3", "--rho", "0.7",
        "--epsilon-grid", "0.5,1.0", "--trials", "2", "--seed", "9",
        "--no-postprocess", "--out", str(tmp_path / "runA"),
    ]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    detail = tmp_path / "runA" / "detail.csv"
    summary = tmp_path / "runA" / "summary.csv"
    assert f"wrote {detail}" in stdout and f"wrote {summary}" in stdout
    with open(detail, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    argv2 = argv[:-1] + [str(tmp_path / "runB")]
    run_cli(argv2, capsys)
    assert detail.read_bytes() == (tmp_path / "runB" / "detail.csv").read_bytes()
    assert summary.read_bytes() == (tmp_path / "runB" / "summary.csv").read_bytes()


def test_exit_codes(tmp_path, capsys):
    # missing input file -> 1, with the path named
    code, _, err = run_cli(
        ["corr", "--data", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "m.json")],
        capsys,
    )
    assert code == 1 and "absent.txt" in err
    # malformed genotype file -> 1
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n2 9\n")
    code, _, err = run_cli(
        ["corr", "--data", str(bad), "--out", str(tmp_path / "m.json")], capsys
    )
    assert code == 1 and "error" in err
    # domain error -> 2
    data = _gen(tmp_path, capsys)
    code, _, err = run_cli(
        ["perturb", "--data", str(data), "--epsilon", "-2.0",
         "--out", str(tmp_path / "x.txt")],
        capsys,
    )
    assert code == 2 and "usage error" in err
    # a budget twice in the experiment grid -> 2, naming it, before anything is written
    code, _, err = run_cli(
        ["experiment", "--n", "8", "--l", "4", "--epsilon-grid", "0.5,1.0,1.0",
         "--trials", "2", "--out", str(tmp_path / "twice")],
        capsys,
    )
    assert code == 2 and "usage error" in err and "repeats the budget 1.0" in err
    assert not (tmp_path / "twice").exists()
    # argparse rejections -> SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["perturb", "--data", str(data), "--epsilon", "1.0",
              "--mechanism", "nonsense", "--out", str(tmp_path / "x.txt")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_stdout_is_invocation_deterministic(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    argv = ["order", "--data", str(data), "--epsilon", "0.8", "--order", "greedy",
            "--seed", "2"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
