import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import condorcet.cli as cli
from condorcet import montecarlo
from condorcet.cultures import STREAM_VERSION, cyclic_culture, impartial_culture
from condorcet.exact import condorcet_probability
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
    # the impartial culture is symmetric: the share of each alternative once
    assert record["results"]["per_alternative_each"] == "17/54"
    assert "per_alternative" not in record["results"]
    assert record["results"]["method"] == "dp"
    assert record["results"]["moves"] == 9
    # the programme enumerates no multiset and judges none
    assert record["results"]["multisets"] is None
    assert record["results"]["winner_checks"] is None
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


def test_simulate_cyclic_minimiser_identical_across_workers(capsys):
    """2^19 cyclic (10, 2) profiles, 32 chunks judged by lookup in the
    100-entry table, give one record at 1, 2 and 3 workers."""
    argv = ["simulate", "--culture", "cyclic", "--n", "10", "--k", "2",
            "--samples", "524288", "--seed", "7", "--format", "json"]
    records = [json.loads(run_capture(capsys, argv + ["--workers", w])[1])["results"]
               for w in ("1", "2", "3")]
    assert records[0] == records[1] == records[2]
    assert records[0]["winner_table"] == 100 and records[0]["blocks"] == 32
    assert abs(records[0]["p_hat"] - 0.28) < 5 * math.sqrt(0.28 * 0.72 / 524288)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_one(capsys, workers):
    commands = [
        ["simulate", "--culture", "cyclic", "--n", "10", "--k", "2"],
        ["sweep", "--family", "impartial", "--n-values", "5,7", "--k", "2"],
    ]
    for argv in commands:
        code, out = run_capture(capsys, argv + ["--samples", "4096", "--workers", workers])
        assert code == 1 and out == ""


def test_exact_cyclic_matches_minprob_at_two_hundred(capsys):
    code, exact_out = run_capture(capsys, ["exact", "--culture", "cyclic", "--n", "200", "--k", "2"])
    assert code == 0
    code, minprob_out = run_capture(capsys, ["minprob", "--n", "200", "--k", "2"])
    assert code == 0
    assert parse_human(exact_out)["value"] == parse_human(minprob_out)["value"]


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


@pytest.mark.parametrize(
    "command",
    [["exact"], ["lowerbound"], ["simulate", "--samples", "4096", "--seed", "9"]],
    ids=["exact", "lowerbound", "simulate"],
)
def test_named_culture_file_matches_named_culture(capsys, tmp_path, command):
    path = tmp_path / "cyclic6.json"
    path.write_text(json.dumps({"n": 6, "kind": "cyclic"}))
    tail = ["--k", "2", "--format", "json"]
    code, from_file = run_capture(capsys, command + ["--culture", str(path)] + tail)
    assert code == 0
    code, named = run_capture(capsys, command + ["--culture", "cyclic", "--n", "6"] + tail)
    assert code == 0
    assert json.loads(from_file)["results"] == json.loads(named)["results"]


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
    assert [r[0] for r in rows[1:-2]] == ["3", "5"]
    for row in rows[1:-2]:
        assert 0.0 <= float(row[2]) <= 1.0
    assert rows[-2] == ["stream_version", str(STREAM_VERSION)] + [""] * 5
    assert rows[-1] == ["seed", "12"] + [""] * 5


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_sweep_names_its_stream_version(capsys, fmt):
    """Each sweep cell's p_hat reproduces from (cell seed, stream version),
    so every format names the version once, after the cells."""
    code, out = run_capture(
        capsys,
        ["sweep", "--family", "impartial", "--n-values", "5,7", "--voters", "3",
         "--samples", "1024", "--seed", "4", "--format", fmt],
    )
    assert code == 0
    if fmt == "json":
        results = json.loads(out)["results"]
        assert [cell["n"] for cell in results["cells"]] == [5, 7]
        version = results["stream_version"]
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:-2]] == ["5", "7"]
        assert rows[-2][0] == "stream_version" and not any(rows[-2][2:])
        version = int(rows[-2][1])
    else:
        version = int(parse_human(out)["stream_version"])
    assert version == STREAM_VERSION


def test_ck_reports_error_budget(capsys):
    # C_1 = 1 exactly: no quadrature pass runs, at the default target or any other
    for extra in ([], ["--target-error", "1e-14"], ["--target-error", "1e-300"]):
        code, out = run_capture(capsys, ["ck", "--k", "1", "--format", "json"] + extra)
        assert code == 0
        results = json.loads(out)["results"]
        assert abs(results["value"] - 1.0) <= results["total_error"]
        assert results["total_error"] == pytest.approx(
            results["quadrature_error"] + results["truncation_bound"]
        )
        assert (results["value"], results["total_error"], results["refinements"]) == (1.0, 0.0, [])
    # no passes read as [] in every format, never as a blank cell or field
    _, csv_fields, human = three_formats(capsys, ["ck", "--k", "1"])
    assert csv_fields["refinements"] == human["refinements"] == "[]"


def test_ck_k1_full_exits_one(capsys):
    """The box oracle serves k >= 2 only."""
    code = cli.run(["ck", "--k", "1", "--full"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("condorcet: error:") and "k >= 2" in err


def test_ck_refinement_history_in_every_format(capsys):
    """Each pass of the simplex rule and of the box oracle is one record of
    exactly nodes, evaluations, value and error, the same in every
    format."""
    for argv, nodes, evaluations in (
        # the k = 2 simplex is one point: one evaluation per pass
        (["ck", "--k", "2", "--target-error", "0.5"], [8, 12], [1, 1]),
        # box passes: cells * DEFAULT_DEGREE nodes per axis, C(nodes+2, 3) orbits
        (["ck", "--k", "2", "--full", "--target-error", "0.5"], [128, 256],
         [math.comb(128 + 2, 3), math.comb(256 + 2, 3)]),
    ):
        _, as_json = run_capture(capsys, argv + ["--format", "json"])
        _, as_csv = run_capture(capsys, argv + ["--format", "csv"])
        _, human = run_capture(capsys, argv + ["--format", "human"])
        results = json.loads(as_json)["results"]
        history = results["refinements"]
        assert json.loads(dict(csv.reader(io.StringIO(as_csv)))["refinements"]) == history
        assert json.loads(parse_human(human)["refinements"]) == history
        assert all(list(step) == ["nodes", "evaluations", "value", "error"] for step in history)
        assert [step["nodes"] for step in history] == nodes
        assert [step["evaluations"] for step in history] == evaluations
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


@pytest.mark.parametrize("mode", ["large-n", "large-k"])
def test_asymptote_at_large_k(capsys, mode):
    # the minimum probability and the large-n term both underflow a float here
    code, out = run_capture(
        capsys, ["asymptote", "--mode", mode, "--n", "10", "--k", "1000", "--format", "json"]
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert all(math.isfinite(v) for v in results.values() if isinstance(v, float))
    if mode == "large-k":
        assert results["empirical_rate"] == pytest.approx(1.02385, abs=1e-5)
        assert results["decay_rate"] == pytest.approx(1.02165, abs=1e-5)
    else:
        assert results["relative_deviation"] == pytest.approx(1.0)


def three_formats(capsys, argv):
    """The results of one command as JSON, CSV and human output."""
    _, as_json = run_capture(capsys, argv + ["--format", "json"])
    _, as_csv = run_capture(capsys, argv + ["--format", "csv"])
    _, human = run_capture(capsys, argv + ["--format", "human"])
    return json.loads(as_json)["results"], dict(csv.reader(io.StringIO(as_csv))), parse_human(human)


@pytest.mark.parametrize(
    "n, k, exact, leading",
    [(10, 1000, -444.65, -398.99), (5, 3, math.log10(0.2896), math.log10(0.4))],
)
def test_asymptote_large_n_log10_fields(capsys, n, k, exact, leading):
    """log10 of both values from their exact integers, in every format: at
    (10, 1000) the values themselves underflow to 0.0; at (5, 3) the fields
    equal log10 of the float fields."""
    argv = ["asymptote", "--mode", "large-n", "--n", str(n), "--k", str(k)]
    results, csv_fields, human = three_formats(capsys, argv)
    for name, expected in (("log10_exact_min_prob", exact), ("log10_leading_term", leading)):
        assert results[name] == pytest.approx(expected, abs=0.01)
        assert float(csv_fields[name]) == float(human[name]) == results[name]
    if k == 1000:
        assert results["exact_min_prob"] == results["leading_term"] == 0.0
    else:
        for name in ("exact_min_prob", "leading_term"):
            assert results[f"log10_{name}"] == pytest.approx(math.log10(results[name]), rel=1e-14)


@pytest.mark.parametrize(
    "culture, n, entries", [("cyclic", 10, 100), ("impartial", 50, 0)]
)
def test_simulate_reports_winner_table(capsys, culture, n, entries):
    """Cyclic (10, 2) judges its profiles by lookup in a table of 10^2
    entries, one per pair of rotations of voters 1 and 2; the impartial
    culture has no finite support to tabulate.  4096 profiles make one
    block of cyclic (10, 2), one draw per chunk, and two of impartial
    (50, 2), at most 3 * 2^17 // (3 n) profiles each;
    rank tensors never tie, and 5 impartial profiles tie on their 16-bit
    keys and are judged again.  Every format also names the stream version
    the seed's p_hat belongs to."""
    argv = ["simulate", "--culture", culture, "--n", str(n), "--k", "2",
            "--samples", "4096", "--seed", "3"]
    results, csv_fields, human = three_formats(capsys, argv)
    assert results["winner_table"] == int(csv_fields["winner_table"]) == entries
    assert int(human["winner_table"]) == entries
    blocks, rejudged = {"cyclic": (1, 0), "impartial": (2, 5)}[culture]
    for field, value in (("blocks", blocks), ("rejudged_profiles", rejudged),
                         ("stream_version", STREAM_VERSION)):
        assert results[field] == int(csv_fields[field]) == int(human[field]) == value


def test_simulate_reports_rejudged_profiles(capsys, monkeypatch):
    """A sampler keeping 4 bits of each impartial key makes all but one of
    4096 profiles tie at seed 3, so 4095 are judged again, and every format
    says so."""
    real = montecarlo._sample_positions
    monkeypatch.setattr(montecarlo, "_sample_positions", lambda *args: real(*args) & 0xF)
    argv = ["simulate", "--culture", "impartial", "--n", "50", "--k", "2",
            "--samples", "4096", "--seed", "3"]
    results, csv_fields, human = three_formats(capsys, argv)
    for field, value in (("blocks", 2), ("rejudged_profiles", 4095)):
        assert results[field] == int(csv_fields[field]) == int(human[field]) == value


def test_asymptote_impartial_needs_constant(capsys):
    # no constant is computed outside asymptotic.SUPPORTED_K
    code, _ = run_capture(
        capsys, ["asymptote", "--mode", "impartial", "--n", "100", "--k", "5"]
    )
    assert code == 1
    code, out = run_capture(
        capsys,
        ["asymptote", "--mode", "impartial", "--n", "100", "--voters", "3",
         "--constant", "2.7842"],
    )
    assert code == 0
    assert float(parse_human(out)["leading_term"]) == pytest.approx(0.27842)


def test_asymptote_impartial_computes_constant(capsys):
    argv = ["asymptote", "--mode", "impartial", "--n", "1000", "--k", "3", "--format", "json"]
    code, out = run_capture(capsys, argv)
    assert code == 0
    results = json.loads(out)["results"]
    c3 = 4.284122826932527
    assert abs(results["constant"] - c3) <= results["constant_error"] <= 1e-12
    assert results["leading_term"] == pytest.approx(c3 / 100.0, rel=1e-12)
    # an explicit constant wins and carries no error
    code, out = run_capture(capsys, argv + ["--constant", "4.0"])
    results = json.loads(out)["results"]
    assert (results["constant"], results["constant_error"]) == (4.0, None)
    assert results["leading_term"] == pytest.approx(0.04)


def test_asymptote_impartial_k1_constant_is_exact(capsys):
    argv = ["asymptote", "--mode", "impartial", "--n", "7", "--k", "1", "--format", "json"]
    code, out = run_capture(capsys, argv)
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["constant"], results["constant_error"]) == (1.0, 0.0)
    assert results["leading_term"] == 1.0


def test_ck_imports_no_undeclared_dependency():
    """scipy and mpmath are not declared dependencies: a ck run at k = 3
    in a fresh interpreter loads neither."""
    script = (
        "import sys\n"
        "import condorcet.cli as cli\n"
        "assert cli.run(['ck', '--k', '3', '--target-error', '1e-12', '--format', 'json']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"


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
    # violations_total and the seed, padded to the width
    assert table[-2:] == [["violations_total", "0"] + [""] * 4, ["seed", "3"] + [""] * 4]
    line = parse_human(human)[row["name"]]
    inequality, worst_input = line.split("worst_inequality=", 1)[1].split(" worst_input=")
    assert json.loads(worst_input) == row["worst_input"]
    assert json.loads(inequality) == row["worst_inequality"]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "tail_sandwich"],
    ["sweep", "--family", "impartial", "--n-values", "4,6", "--voters", "3",
     "--samples", "512"],
], ids=["verify", "sweep"])
def test_table_csv_seed_reruns_the_table(capsys, argv):
    """A table run without --seed draws one; its CSV names it in a last,
    padded row, and a rerun with that seed writes the same rows."""
    _, drawn = run_capture(capsys, argv + ["--format", "csv"])
    rows = list(csv.reader(io.StringIO(drawn)))
    assert rows[-1][0] == "seed" and not any(rows[-1][2:])
    _, rerun = run_capture(capsys, argv + ["--seed", rows[-1][1], "--format", "csv"])
    assert list(csv.reader(io.StringIO(rerun))) == rows


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


@pytest.mark.parametrize(
    "obj, entry",
    [
        ({"n": 2, "entries": [{"ranking": [0, 1]}]}, "culture entry 0"),
        ({"n": 2, "entries": [[[0, 1], "1"]]}, "culture entry 0"),
        ({"n": 2, "entries": [{"ranking": 5, "p": "1"}]}, "culture entry 0"),
        ({"n": 2, "entries": 5}, "'entries' must be a list"),
        ({"n": 2, "entries": [{"ranking": [0, 1], "p": None}]}, "culture entry 0"),
        ({"n": 2, "entries": [{"ranking": ["a", "b"], "p": "1"}]}, "culture entry 0"),
        ({"n": "x", "entries": [{"ranking": [0, 1], "p": "1"}]}, "culture 'n'"),
        ({"n": 3, "kind": "urn"}, "unknown culture kind 'urn'"),
        ({"n": 2, "kind": "cyclic", "entries": [{"ranking": [0, 1], "p": "1"}]},
         "cyclic culture entries must be exactly its 2 rankings"),
    ],
    ids=[
        "missing_p", "list_entry", "ranking_not_list", "entries_not_list",
        "null_p", "ranking_not_indices", "n_not_integer", "unknown_kind",
        "named_kind_other_entries",
    ],
)
def test_malformed_culture_file_exit_one(capsys, tmp_path, obj, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code = cli.run(["exact", "--culture", str(path), "--k", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("condorcet: error:")
    assert entry in err
    assert "Traceback" not in err


def test_ck_nan_target_exit_one(capsys):
    code = cli.run(["ck", "--k", "1", "--target-error", "nan"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("condorcet: error:")


def test_cap_exceeded_exit_three(capsys):
    code, _ = run_capture(
        capsys,
        ["exact", "--culture", "impartial", "--n", "4", "--voters", "3",
         "--max-winner-checks", "10"],
    )
    assert code == 3
    code, _ = run_capture(capsys, ["ck", "--k", "3", "--full", "--target-error", "1e-9"])
    assert code == 3
    # below 1e-6 no k = 2 mesh within the budget resolves the box
    code, _ = run_capture(capsys, ["ck", "--k", "2", "--full", "--target-error", "1e-7"])
    assert code == 3
    # no simplex rule meets a target below its rounding allowance, and the
    # message says so rather than naming a point count; the floor it names
    # is a bound, since the point cap may stop a target above it
    for k, allowance in ((2, "3.96e-14"), (3, "6.09e-14")):
        code = cli.run(["ck", "--k", str(k), "--target-error", "1e-14"])
        err = capsys.readouterr().err
        assert code == 3
        assert f"below the rounding floor, {allowance} rounded up:" in err
        assert f"64 eps |value|, is {allowance}" in err
        assert "no target error below the floor can be met" in err


def test_ck_rounding_floor_names_the_flag_value(capsys):
    """The box oracle gives the quadrature half of --target-error, and its
    messages say so.  The simplex rule at k = 2 agrees with itself to the
    last bit, so its rounding allowance is its whole error: a target at
    the floor the message names runs to the end, one just below still
    exits 3."""
    code = cli.run(["ck", "--k", "2", "--full", "--target-error", "1e-14"])
    err = capsys.readouterr().err
    assert code == 3
    assert "target error 1e-14, of which the quadrature gets 5e-15," in err
    code = cli.run(["ck", "--k", "2", "--target-error", "1e-14"])
    err = capsys.readouterr().err
    assert code == 3
    named = err.split("rounding floor, ", 1)[1].split(" rounded up:", 1)[0]
    assert named == "3.96e-14"
    code, out = run_capture(capsys, ["ck", "--k", "2", "--target-error", named, "--format", "json"])
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(results["value"] - math.pi ** 1.5 / 2.0) <= results["total_error"] <= float(named)
    code = cli.run(["ck", "--k", "2", "--target-error", "3.95e-14"])
    assert code == 3
    assert "rounding floor, 3.96e-14 rounded up:" in capsys.readouterr().err


def test_out_writes_same_text(capsys, tmp_path):
    path = tmp_path / "report.json"
    _, out = run_capture(
        capsys,
        ["minprob", "--n", "5", "--voters", "3", "--format", "json",
         "--out", str(path)],
    )
    assert path.read_text() == out
    assert json.loads(out)["results"]["value"] == str(Fraction(13, 25))


@pytest.mark.parametrize(
    "culture, n, k, multisets", [("impartial", 3, 2, 56), ("cyclic", 12, 4, 31824)]
)
def test_exact_reports_winner_checks(capsys, tmp_path, culture, n, k, multisets):
    """Every format carries the multiset count and the winner checks the
    pruned walk made, which the library reports too.  ``--culture
    impartial`` runs the programme, so the impartial row walks its expanded
    support, read from a culture file, one walk per alternative."""
    if culture == "impartial":
        built, walks = impartial_culture(n).expand(), n
        save_culture(built, tmp_path / "impartial.json")
        argv = ["exact", "--culture", str(tmp_path / "impartial.json"), "--k", str(k)]
    else:
        built, walks = cyclic_culture(n), 1
        argv = ["exact", "--culture", culture, "--n", str(n), "--k", str(k)]
    results, csv_fields, human = three_formats(capsys, argv)
    checks = condorcet_probability(built, k).winner_checks
    assert results["multisets"] == int(csv_fields["multisets"]) == int(human["multisets"]) == multisets
    assert results["winner_checks"] == int(csv_fields["winner_checks"]) == checks
    assert int(human["winner_checks"]) == checks
    assert 0 < checks < walks * multisets
    assert results["method"] == "enumeration"
    assert results["moves"] is None and csv_fields["moves"] == human["moves"] == "None"


@pytest.mark.parametrize("culture", ["impartial", "cyclic"])
def test_exact_writes_a_named_kind_share_once(capsys, tmp_path, culture):
    """A named kind's record carries the one share every alternative has, in
    every format; a culture file keeps one share per alternative.  With one
    voter each of four alternatives wins with probability 1/4."""
    share = "1/4"
    argv = ["exact", "--culture", culture, "--n", "4", "--k", "1"]
    results, csv_fields, human = three_formats(capsys, argv)
    assert results["per_alternative_each"] == csv_fields["per_alternative_each"] == share
    assert human["per_alternative_each"] == share
    assert "per_alternative" not in results
    built = impartial_culture(4) if culture == "impartial" else cyclic_culture(4)
    save_culture(built.expand(), tmp_path / "expanded.json")
    argv = ["exact", "--culture", str(tmp_path / "expanded.json"), "--k", "1"]
    results, csv_fields, human = three_formats(capsys, argv)
    assert results["per_alternative"] == [share] * 4
    assert csv_fields["per_alternative"] == ";".join([share] * 4)
    assert human["per_alternative"] == ", ".join([share] * 4)


@pytest.mark.parametrize("n, k", [(3, 2), (6, 2), (3, 9)])
def test_exact_reports_the_programme_moves(capsys, n, k):
    """The impartial record carries the programme's move count in every
    format, the count the library reports, and no multiset count or winner
    check, since it makes neither."""
    argv = ["exact", "--culture", "impartial", "--n", str(n), "--k", str(k)]
    results, csv_fields, human = three_formats(capsys, argv)
    moves = condorcet_probability(impartial_culture(n), k).moves
    assert results["method"] == csv_fields["method"] == human["method"] == "dp"
    assert results["moves"] == int(csv_fields["moves"]) == int(human["moves"]) == moves > 0
    for field in ("multisets", "winner_checks"):
        assert results[field] is None and csv_fields[field] == human[field] == "None"


def test_exact_impartial_at_two_hundred_alternatives(capsys):
    """Hundreds of alternatives are in reach of the programme, and the move
    cap stops a larger one at once."""
    code, out = run_capture(
        capsys, ["exact", "--culture", "impartial", "--n", "200", "--k", "2", "--format", "json"])
    assert code == 0
    results = json.loads(out)["results"]
    # voter 0 makes 200 moves and voter 1 makes 200 + 199 + ... + 1; the last none
    assert results["moves"] == 200 + 200 * 201 // 2
    assert 0.1867 < results["value_float"] < 0.1868
    code = cli.run(["exact", "--culture", "impartial", "--n", "800", "--k", "2",
                    "--max-winner-checks", "1000"])
    assert code == 3
    assert "needed 321200, cap 1000" in capsys.readouterr().err


def parse_outcome(parser, argv):
    """(exit code, stdout, stderr) of parsing ``argv``; a parse that
    succeeds reports its namespace on stdout and exit code None."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            out.write(repr(sorted(vars(parser.parse_args(argv)).items())))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(cli._COMMANDS))
@pytest.mark.parametrize(
    "extra", [["-h"], [], ["--bogus", "1"], ["--format", "xml"]],
    ids=["help", "bare", "unknown-option", "bad-format"],
)
def test_one_subparser_parses_as_the_full_parser(name, extra):
    """The parser ``run`` builds for one subcommand gives the same exit
    code, stdout and stderr as the parser holding all of them, including
    the top-level usage line printed for unrecognised arguments."""
    argv = [name] + extra
    assert parse_outcome(cli.build_parser(name), argv) == parse_outcome(cli.build_parser(), argv)


@pytest.mark.parametrize(
    "argv, stream, message",
    [
        (["--help"], "out", "run inequality suites"),
        (["no-such-command"], "err", "argument command: invalid choice: 'no-such-command'"),
        ([], "err", "the following arguments are required: command"),
    ],
)
def test_top_level_lists_every_command(capsys, argv, stream, message):
    with pytest.raises(SystemExit):
        cli.run(argv)
    captured = capsys.readouterr()
    text = captured.out if stream == "out" else captured.err
    assert "{" + ",".join(cli._COMMANDS) + "}" in text
    assert message in text


def test_parsers_built_per_call(capsys, monkeypatch):
    """A call naming its subcommand builds the top-level parser and that
    subparser only; anything else builds all of them."""
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert cli.run(["ck", "--k", "2", "--format", "json"]) == 0
    assert len(built) == 2
    for argv in (["no-such-command"], ["--version"], ["-h"], []):
        built.clear()
        with pytest.raises(SystemExit):
            cli.run(argv)
        assert len(built) == 1 + len(cli._COMMANDS) == 9


def test_python_dash_m_runs_the_cli():
    """``python -m condorcet`` reads its arguments from ``sys.argv``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "condorcet", "minprob", "--n", "3", "--k", "2", "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["value"] == "7/9"
