import csv
import io
import json
import math
from fractions import Fraction

import pytest

import condorcet.cli as cli
from condorcet.model import culture_from_entries, save_culture
from condorcet.verify import CheckReport


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def parse_human(text):
    fields = {}
    for line in text.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            fields[key] = value
    return fields


def test_minprob_human(capsys):
    code, out = run_capture(capsys, ["minprob", "--n", "3", "--voters", "3"])
    assert code == 0
    fields = parse_human(out)
    assert fields["value"] == "7/9"
    assert float(fields["value_float"]) == pytest.approx(7.0 / 9.0)
    assert fields["version"]


def test_minprob_k_alias_matches_voters(capsys):
    _, by_voters = run_capture(capsys, ["minprob", "--n", "4", "--voters", "5"])
    _, by_k = run_capture(capsys, ["minprob", "--n", "4", "--k", "3"])
    assert parse_human(by_voters)["value"] == parse_human(by_k)["value"]


def test_exact_json(capsys):
    code, out = run_capture(
        capsys,
        ["exact", "--culture", "impartial", "--n", "3", "--voters", "3",
         "--format", "json"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "exact"
    assert record["results"]["value"] == "17/18"
    assert record["results"]["per_alternative"] == ["17/54"] * 3
    assert record["results"]["multisets"] == 56
    assert record["parameters"]["n"] == 3


def test_formats_carry_identical_numbers(capsys):
    argv = ["simulate", "--culture", "cyclic", "--n", "6", "--voters", "3",
            "--samples", "8192", "--seed", "99"]
    _, human = run_capture(capsys, argv + ["--format", "human"])
    _, as_json = run_capture(capsys, argv + ["--format", "json"])
    _, as_csv = run_capture(capsys, argv + ["--format", "csv"])

    human_p = float(parse_human(human)["p_hat"])
    json_p = json.loads(as_json)["results"]["p_hat"]
    csv_rows = dict(csv.reader(io.StringIO(as_csv)))
    assert human_p == json_p == float(csv_rows["p_hat"])
    assert int(csv_rows["seed"]) == 99


def test_simulate_generates_and_echoes_seed(capsys):
    argv = ["simulate", "--culture", "impartial", "--n", "4", "--voters", "3",
            "--samples", "4096", "--format", "json"]
    _, first = run_capture(capsys, argv)
    record = json.loads(first)
    seed = record["seed"]
    assert seed is not None
    assert record["results"]["seed"] == seed
    # replaying the printed seed reproduces p_hat exactly
    _, replay = run_capture(capsys, argv + ["--seed", str(seed)])
    assert json.loads(replay)["results"]["p_hat"] == record["results"]["p_hat"]


def test_simulate_and_sweep_identical_across_workers(capsys):
    # 40000 samples span three chunks, so two workers really split the work
    commands = [
        ["simulate", "--culture", "cyclic", "--n", "10", "--k", "2"],
        ["sweep", "--family", "impartial", "--n-values", "5,7", "--k", "2"],
    ]
    for argv in commands:
        argv = argv + ["--samples", "40000", "--seed", "5", "--format", "json"]
        _, alone = run_capture(capsys, argv + ["--workers", "1"])
        _, pooled = run_capture(capsys, argv + ["--workers", "2"])
        alone, pooled = json.loads(alone), json.loads(pooled)
        assert alone["results"] == pooled["results"]
        assert alone["seed"] == pooled["seed"] == 5
    cells = alone["results"]["cells"]
    assert [cell["n"] for cell in cells] == [5, 7]
    assert len({cell["p_hat"] for cell in cells}) == 2


def test_lowerbound_with_culture_file(capsys, tmp_path):
    culture = culture_from_entries(
        3, [((0, 1, 2), "1/2"), ((1, 0, 2), "1/2")]
    )
    path = tmp_path / "half.json"
    save_culture(culture, str(path))
    code, out = run_capture(
        capsys, ["lowerbound", "--culture", str(path), "--voters", "3"]
    )
    assert code == 0
    assert parse_human(out)["value"] == "1"


def test_culture_file_n_cross_check(capsys, tmp_path):
    culture = culture_from_entries(2, [((0, 1), "1/2"), ((1, 0), "1/2")])
    path = tmp_path / "two.json"
    save_culture(culture, str(path))
    code, _ = run_capture(
        capsys,
        ["exact", "--culture", str(path), "--n", "5", "--voters", "3"],
    )
    assert code == 1


def test_sweep_csv_contract(capsys):
    code, out = run_capture(
        capsys,
        ["sweep", "--family", "cyclic", "--n-values", "3,5", "--voters", "3",
         "--samples", "2048", "--seed", "12", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "k", "p_hat", "std_error", "ci_low", "ci_high", "seed"]
    assert [r[0] for r in rows[1:]] == ["3", "5"]
    for row in rows[1:]:
        assert 0.0 <= float(row[2]) <= 1.0


def test_ck_reports_error_budget(capsys):
    code, out = run_capture(capsys, ["ck", "--k", "1", "--format", "json"])
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(results["value"] - 1.0) <= results["total_error"]
    assert results["total_error"] == pytest.approx(
        results["quadrature_error"] + results["truncation_bound"]
    )


def test_ck_refinement_history_in_every_format(capsys):
    argv = ["ck", "--k", "2", "--target-error", "0.5"]
    _, as_json = run_capture(capsys, argv + ["--format", "json"])
    _, as_csv = run_capture(capsys, argv + ["--format", "csv"])
    _, human = run_capture(capsys, argv + ["--format", "human"])
    results = json.loads(as_json)["results"]
    history = results["refinements"]
    assert json.loads(dict(csv.reader(io.StringIO(as_csv)))["refinements"]) == history
    assert json.loads(parse_human(human)["refinements"]) == history
    assert len(history) >= 2
    assert [step["cells"] for step in history] == [16 * 2 ** i for i in range(len(history))]
    assert all(step["points"] == (step["cells"] * 8) ** 2 for step in history)
    assert history[0]["error"] is None
    assert history[-1]["value"] == results["value"]
    assert history[-1]["error"] == results["quadrature_error"]


def test_asymptote_large_n(capsys):
    code, out = run_capture(
        capsys,
        ["asymptote", "--mode", "large-n", "--n", "10000", "--voters", "3"],
    )
    assert code == 0
    fields = parse_human(out)
    assert float(fields["relative_deviation"]) < 1e-4


def test_asymptote_large_k(capsys):
    code, out = run_capture(
        capsys, ["asymptote", "--mode", "large-k", "--n", "3", "--k", "40"]
    )
    assert code == 0
    fields = parse_human(out)
    assert float(fields["decay_rate"]) == pytest.approx(math.log(9.0 / 8.0))


def test_asymptote_impartial_needs_constant(capsys):
    code, _ = run_capture(
        capsys, ["asymptote", "--mode", "impartial", "--n", "100", "--voters", "3"]
    )
    assert code == 1
    code, out = run_capture(
        capsys,
        ["asymptote", "--mode", "impartial", "--n", "100", "--voters", "3",
         "--constant", "2.7842"],
    )
    assert code == 0
    assert float(parse_human(out)["leading_term"]) == pytest.approx(0.27842)


def test_verify_suite_exit_zero(capsys):
    code, out = run_capture(
        capsys, ["verify", "--suite", "taylor", "--seed", "3"]
    )
    assert code == 0
    assert parse_human(out)["violations_total"] == "0"


def test_verify_reports_worst_input(capsys):
    argv = ["verify", "--suite", "taylor", "--seed", "3"]
    _, as_json = run_capture(capsys, argv + ["--format", "json"])
    _, as_csv = run_capture(capsys, argv + ["--format", "csv"])
    _, human = run_capture(capsys, argv + ["--format", "human"])
    row = json.loads(as_json)["results"]["reports"][0]
    assert row["worst_input"] is not None
    assert row["worst_inequality"] in ("exp(-t-t^2) <= 1-t", "1-t <= exp(-t)")
    table = list(csv.reader(io.StringIO(as_csv)))
    header, csv_row = table[:2]
    by_column = dict(zip(header, csv_row))
    assert json.loads(by_column["worst_input"]) == row["worst_input"]
    assert by_column["worst_inequality"] == row["worst_inequality"]
    assert len(table[-1]) == len(header)  # violations_total padded to the width
    line = parse_human(human)[row["name"]]
    inequality, worst_input = line.split("worst_inequality=", 1)[1].split(" worst_input=")
    assert json.loads(worst_input) == row["worst_input"]
    assert json.loads(inequality) == row["worst_inequality"]


def test_verify_violations_exit_two(capsys, monkeypatch):
    def broken(names, seed=0):
        return [
            CheckReport(
                "stub", 10, 2,
                {"input": 0.0, "inequality": "stub", "margin": -1.0},
            )
        ]

    monkeypatch.setattr(cli, "run_suites", broken)
    code, out = run_capture(capsys, ["verify", "--suite", "taylor", "--seed", "1"])
    assert code == 2
    assert parse_human(out)["violations_total"] == "2"


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run(["minprob", "--n", "3"])  # missing --voters/--k
    assert exc.value.code == 1


def test_even_voter_count_exit_one(capsys):
    code, _ = run_capture(capsys, ["minprob", "--n", "3", "--voters", "4"])
    assert code == 1


def test_missing_culture_file_exit_one(capsys):
    code, _ = run_capture(
        capsys, ["exact", "--culture", "/no/such/file.json", "--voters", "3"]
    )
    assert code == 1


def test_cap_exceeded_exit_three(capsys):
    code, _ = run_capture(
        capsys,
        ["exact", "--culture", "impartial", "--n", "4", "--voters", "3",
         "--max-winner-checks", "10"],
    )
    assert code == 3
    code, _ = run_capture(capsys, ["ck", "--k", "3", "--target-error", "1e-9"])
    assert code == 3


def test_out_writes_same_text(capsys, tmp_path):
    path = tmp_path / "report.json"
    _, out = run_capture(
        capsys,
        ["minprob", "--n", "5", "--voters", "3", "--format", "json",
         "--out", str(path)],
    )
    assert path.read_text() == out
    assert json.loads(out)["results"]["value"] == str(Fraction(13, 25))
