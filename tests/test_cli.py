"""Command-line interface: exit codes, report formats, schemas."""

import contextlib
import io
import json
import re
import shlex
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sigma_spectra import (
    HypergraphSpec,
    build_sigma,
    colouring_from_json,
    is_valid,
)
from sigma_spectra.cli import RunReport, build_parser, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    path = resources.files("sigma_spectra") / "schemas" / name
    return json.loads(path.read_text(encoding="utf-8"))


A2_FLAGS = ["--n", "5", "--r", "4", "--q", "2", "--sigma", "2,2",
            "--alpha", "3", "--beta", "3"]
GAP_FLAGS = ["--n", "5", "--r", "4", "--q", "2", "--sigma", "2,2",
             "--alpha", "2", "--beta", "2"]


class TestSpectrumCommand:
    def test_point_spectrum_json(self, capsys):
        code, out, _ = run(capsys, ["spectrum", *A2_FLAGS])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["feasible_k"] == [6]
        jsonschema.validate(report, load_schema("run_report.schema.json"))
        jsonschema.validate(
            report["result"], load_schema("spectrum_result.schema.json")
        )

    def test_gap_reported(self, capsys):
        code, out, _ = run(capsys, ["spectrum", *GAP_FLAGS])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["feasible_k"] == [2, 5]
        assert report["result"]["gaps"] == [[3, 4]]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["spectrum", *GAP_FLAGS, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,feasible,nodes_explored"
        assert len(lines) == 11
        row2 = lines[2].split(",")
        assert row2[0] == "2" and row2[1] == "true"

    def test_sigma_r_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "spectrum", "--n", "5", "--r", "4", "--q", "2",
            "--sigma", "2,3", "--alpha", "2", "--beta", "2",
        ])
        assert code == 2
        assert "sum" in err

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run(capsys, ["spectrum", "--n", "5"])
        assert code == 2
        assert "--r" in err

    def test_budget_truncation_exits_3(self, capsys):
        code, out, _ = run(capsys, [
            "spectrum", "--n", "7", "--r", "12", "--q", "6",
            "--sigma", "6,6", "--alpha", "3", "--beta", "3",
            "--k-max", "4", "--budget", "100",
        ])
        assert code == 3
        report = json.loads(out)
        assert report["complete"] is False
        assert 4 in report["result"]["unknown_k"]
        code, out, _ = run(capsys, [
            "spectrum", "--n", "7", "--r", "12", "--q", "6",
            "--sigma", "6,6", "--alpha", "3", "--beta", "3",
            "--k-max", "5", "--budget", "100", "--format", "csv",
        ])
        assert code == 3
        assert out.splitlines() == [
            "k,feasible,nodes_explored", "1,false,2", "2,false,20",
            "3,true,23", "4,unknown,101", "5,unknown,101",
        ]


class TestCheckCommand:
    def test_valid_colouring(self, capsys, tmp_path):
        f = tmp_path / "col.json"
        f.write_text(json.dumps({
            "n": 5, "q": 2,
            "classes": [[0, j + 1] for j in range(5)],
        }))
        code, out, _ = run(capsys, ["check", *A2_FLAGS,
                                    "--colouring-file", str(f)])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["valid"] is True
        assert report["result"]["witness"] is None

    def test_invalid_exits_1_with_witness(self, capsys, tmp_path):
        f = tmp_path / "col.json"
        f.write_text(json.dumps({
            "n": 5, "q": 2, "classes": [[0, 0]] * 5,
        }))
        code, out, _ = run(capsys, ["check", *A2_FLAGS,
                                    "--colouring-file", str(f)])
        assert code == 1
        witness = json.loads(out)["result"]["witness"]
        assert witness["distinct_colours"] == 1

    def test_truncated_file_exits_2(self, capsys, tmp_path):
        f = tmp_path / "col.json"
        f.write_text('{"n": 5, "q": 2, "classes": [[0')
        code, _, err = run(capsys, ["check", *A2_FLAGS,
                                    "--colouring-file", str(f)])
        assert code == 2

    def test_non_integer_colours_exit_2(self, capsys, tmp_path):
        f = tmp_path / "col.json"
        f.write_text('{"n": 5, "q": 2, "classes": '
                     '[[0, "a"], [0, 2], [0, 3], [0, 4], [0, 5]]}')
        code, _, _ = run(capsys, ["check", *A2_FLAGS,
                                  "--colouring-file", str(f)])
        assert code == 2

    def test_spec_file_missing_fields_exits_2(self, capsys, tmp_path):
        sf = tmp_path / "spec.json"
        sf.write_text(json.dumps({"n": 5, "q": 2}))
        cf = tmp_path / "col.json"
        cf.write_text(json.dumps({"n": 5, "q": 2, "classes": [[0, 1]] * 5}))
        code, _, err = run(capsys, ["check", "--spec-file", str(sf),
                                    "--colouring-file", str(cf)])
        assert code == 2

    def test_spec_file_input(self, capsys, tmp_path):
        sf = tmp_path / "spec.json"
        sf.write_text(json.dumps({
            "n": 5, "r": 4, "q": 2, "sigma": [2, 2], "alpha": 3, "beta": 3,
        }))
        cf = tmp_path / "col.json"
        cf.write_text(json.dumps({
            "n": 5, "q": 2, "classes": [[0, j + 1] for j in range(5)],
        }))
        code, out, _ = run(capsys, ["check", "--spec-file", str(sf),
                                    "--colouring-file", str(cf)])
        assert code == 0


class TestConstructCommand:
    def test_beta_colouring_emitted(self, capsys):
        code, out, _ = run(capsys, ["construct", *GAP_FLAGS, "--kind", "beta"])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["colour_count"] == 2
        jsonschema.validate(
            report["result"]["colouring"], load_schema("colouring.schema.json")
        )

    def test_mono_outside_zone_exits_1(self, capsys):
        code, _, err = run(capsys, ["construct", *GAP_FLAGS,
                                    "--kind", "mono", "--k", "3"])
        assert code == 1
        assert "zone" in err

    def test_layered_past_one_singleton_per_class_exits_1(self, capsys):
        # edgeless (n < s): beta - k*s = 2 extras, but only one class; k=3
        # is within n*q, so the builder, not the argument check, refuses it
        code, _, err = run(capsys, [
            "construct", "--n", "1", "--r", "3", "--q", "3", "--sigma", "1,1,1",
            "--alpha", "2", "--beta", "5", "--kind", "layered", "--k", "3"])
        assert code == 1
        assert err.startswith("construction failed:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_mono_without_k_exits_2(self, capsys):
        code, _, _ = run(capsys, ["construct", *GAP_FLAGS, "--kind", "mono"])
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "spectrum.json"
        code, stdout, _ = run(capsys, ["spectrum", *GAP_FLAGS,
                                       "--output", str(out_file)])
        assert code == 0
        assert stdout == ""
        report = json.loads(out_file.read_text())
        assert report["result"]["feasible_k"] == [2, 5]

    def test_engine_witness(self, capsys):
        code, out, _ = run(capsys, ["construct", *A2_FLAGS,
                                    "--kind", "engine", "--k", "6"])
        assert code == 0
        assert json.loads(out)["result"]["colour_count"] == 6

    def test_engine_infeasible_exits_1(self, capsys):
        code, _, _ = run(capsys, ["construct", *A2_FLAGS,
                                  "--kind", "engine", "--k", "5"])
        assert code == 1

    def test_raw_output_feeds_check(self, capsys, tmp_path):
        f = tmp_path / "built.json"
        code, _, _ = run(capsys, ["construct", *A2_FLAGS, "--kind", "engine",
                                  "--k", "6", "--raw", "--output", str(f)])
        assert code == 0
        code, out, _ = run(capsys, ["check", *A2_FLAGS,
                                    "--colouring-file", str(f)])
        assert code == 0
        assert json.loads(out)["result"]["valid"] is True


class TestWalkCommand:
    FLAGS = ["--n", "4", "--r", "4", "--q", "3", "--sigma", "2,2",
             "--alpha", "2", "--beta", "3"]

    def test_down_walk_steps(self, capsys):
        code, out, _ = run(capsys, ["walk", *self.FLAGS,
                                    "--direction", "down", "--start-k", "6"])
        assert code == 0
        steps = json.loads(out)["result"]["steps"]
        assert steps
        spec = HypergraphSpec(n=4, q=3, sigma=build_sigma([2, 2]),
                              alpha=2, beta=3)
        assert all(is_valid(spec, colouring_from_json(json.dumps(s["colouring"])))
                   for s in steps)
        assert steps[-1]["colour_count"] == 5  # n + 1

    def test_start_file(self, capsys, tmp_path):
        f = tmp_path / "start.json"
        f.write_text(json.dumps({
            "n": 4, "q": 3,
            "classes": [[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 4, 5]],
        }))
        code, out, _ = run(capsys, ["walk", *self.FLAGS,
                                    "--direction", "down",
                                    "--start-file", str(f)])
        assert code == 0

    def test_needs_a_start(self, capsys):
        code, _, err = run(capsys, ["walk", *self.FLAGS, "--direction", "down"])
        assert code == 2


class TestVerifyCommand:
    def test_zone_only_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "zone-only"])
        assert code == 0
        assert "OK" in out

    def test_lemmas_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "lemmas"])
        assert code == 0
        assert "FAIL" not in out.splitlines()[0]

    def test_k_max_zero_exits_2(self, capsys):
        code, _, err = run(capsys, ["spectrum", *GAP_FLAGS, "--k-max", "0"])
        assert code == 2

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run(capsys, ["verify", "--suite", "nonsense"])
        assert code == 2

    def test_report_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, ["verify", "--suite", "zone-only",
                                  "--output", str(out_file)])
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["result"]["all_passed"] is True
        jsonschema.validate(report, load_schema("run_report.schema.json"))


def readme_commands():
    """Every ``sigma-spectra ...`` command in README.md, continuations
    joined, as argv lists without the program name."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("sigma-spectra ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "spectrum", "check", "construct", "walk", "verify"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_readme_source_count_is_current():
    # README's "(N at this commit)" is the source size ROADMAP aim 2 tracks:
    # the non-blank lines of the package's modules, as
    # cat src/sigma_spectra/*.py | grep -cv '^\s*$' counts them
    root = Path(__file__).parents[1]
    stated = re.search(r"\((\d+)\s+at\s+this\s+commit\)",
                       (root / "README.md").read_text(encoding="utf-8"))
    lines = [line for path in sorted((root / "src" / "sigma_spectra").glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines()]
    assert stated and int(stated[1]) == sum(1 for line in lines if line.strip())


class TestRunReport:
    def test_to_dict_matches_schema(self):
        spec = {"n": 2, "r": 2, "q": 1, "sigma": [1, 1], "alpha": 2, "beta": 2}
        report = RunReport(
            command="spectrum",
            spec=spec,
            result={"feasible_k": [2]},
            complete=True,
            wall_time_s=0.125,
        )
        assert report.to_dict() == {
            "command": "spectrum",
            "spec": spec,
            "result": {"feasible_k": [2]},
            "complete": True,
            "wall_time_s": 0.125,
        }
        jsonschema.validate(report.to_dict(), load_schema("run_report.schema.json"))


# (argv, files): "{name}" in argv is replaced by the path of files[name],
# written as JSON, or as they are when bytes; "{dir}" by a directory
BAD_INPUTS = {
    "spec-field-not-int": (
        ["spectrum", "--spec-file", "{spec}"],
        {"spec": {"n": "5", "r": 4, "q": 2, "sigma": [2, 2],
                  "alpha": 3, "beta": 3}},
    ),
    "spec-file-not-an-object": (["spectrum", "--spec-file", "{spec}"], {"spec": [1, 2]}),
    "spec-file-r-not-int": (
        ["spectrum", "--spec-file", "{spec}"],
        {"spec": {"n": 3, "r": "4", "q": 2, "sigma": [2, 2], "alpha": 2, "beta": 2}},
    ),
    "spec-file-sigma-not-a-list": (
        ["spectrum", "--spec-file", "{spec}"],
        {"spec": {"n": 3, "r": 4, "q": 2, "sigma": "2,2", "alpha": 2, "beta": 2}},
    ),
    # a seventh field would be dropped without a word
    "spec-file-unknown-field": (
        ["spectrum", "--spec-file", "{spec}"],
        {"spec": {"n": 3, "r": 4, "q": 2, "sigma": [2, 2],
                  "alpha": 2, "beta": 2, "k_max": 5}},
    ),
    "spec-file-not-utf8": (
        ["spectrum", "--spec-file", "{spec}"], {"spec": b"\xff\xfe{}"},
    ),
    # the file's spec would be decided and the flag silently ignored
    "spec-file-and-flag": (
        ["spectrum", "--spec-file", "{spec}", "--n", "5"],
        {"spec": {"n": 3, "r": 4, "q": 2, "sigma": [2, 2],
                  "alpha": 2, "beta": 2}},
    ),
    # the walk would start from the file and ignore --start-k
    "walk-start-file-and-start-k": (
        ["walk", *TestWalkCommand.FLAGS, "--direction", "down", "--start-file",
         "{colouring}", "--start-k", "5"],
        {"colouring": {"n": 4, "q": 3, "classes": [[0, 0, 0], [1, 1, 1],
                                                   [2, 2, 2], [3, 4, 5]]}},
    ),
    "walk-start-file-invalid": (
        ["walk", *TestWalkCommand.FLAGS, "--direction", "down", "--start-file",
         "{colouring}"],
        {"colouring": {"n": 4, "q": 3, "classes": [[0, 0, 0]] * 4}},
    ),
    "walk-alpha-not-two": (
        ["walk", *TestWalkCommand.FLAGS, "--alpha", "3", "--direction", "down",
         "--start-file", "{colouring}"],
        {"colouring": {"n": 4, "q": 3, "classes": [[0, 0, 0]] * 4}},
    ),
    "walk-s-above-beta": (
        ["walk", "--n", "4", "--r", "6", "--q", "3", "--sigma", "2,2,2", "--alpha", "2",
         "--beta", "2", "--direction", "down", "--start-file", "{colouring}"],
        {"colouring": {"n": 4, "q": 3, "classes": [[0, 0, 0]] * 4}},
    ),
    "walk-smallest-part-too-small": (
        ["walk", "--n", "4", "--r", "4", "--q", "3", "--sigma", "3,1", "--alpha", "2",
         "--beta", "2", "--direction", "down", "--start-file", "{colouring}"],
        {"colouring": {"n": 4, "q": 3, "classes": [[0, 0, 0]] * 4}},
    ),
    "walk-start-k-out-of-range": (
        ["walk", *GAP_FLAGS, "--direction", "down", "--start-k", "99"], {},
    ),
    # an empty part would be dropped, leaving a partition of r
    "sigma-empty-inner-part": (
        ["spectrum", "--n", "3", "--r", "2", "--q", "2", "--sigma", "1,,1",
         "--alpha", "2", "--beta", "2"], {},
    ),
    "sigma-empty-last-part": (
        ["spectrum", "--n", "3", "--r", "4", "--q", "2", "--sigma", "2,2,",
         "--alpha", "2", "--beta", "2"], {},
    ),
    "layered-without-k": (["construct", *GAP_FLAGS, "--kind", "layered"], {}),
    "engine-without-k": (["construct", *GAP_FLAGS, "--kind", "engine"], {}),
    # the beta construction takes no k and would ignore it
    "beta-with-k": (["construct", *GAP_FLAGS, "--kind", "beta", "--k", "4"], {}),
    "engine-k-zero": (
        ["construct", *GAP_FLAGS, "--kind", "engine", "--k", "0"], {},
    ),
    "mono-k-zero": (["construct", *GAP_FLAGS, "--kind", "mono", "--k", "0"], {}),
    "mono-k-negative": (["construct", *GAP_FLAGS, "--kind", "mono", "--k", "-3"], {}),
    # k past n*q = 10 vertices
    "layered-k-past-the-vertices": (
        ["construct", *GAP_FLAGS, "--kind", "layered", "--k", "99999"], {},
    ),
    # the engine search recurses once per class, too deep for n=1000
    "engine-too-many-classes": (
        ["construct", "--n", "1000", "--r", "2", "--q", "2", "--sigma", "2",
         "--alpha", "2", "--beta", "2", "--kind", "engine", "--k", "2", "--raw"],
        {},
    ),
    # two billion vertices: the search must not size its state by them
    "spectrum-too-many-classes": (
        ["spectrum", "--n", "1000000000", "--r", "4", "--q", "2", "--sigma", "2,2",
         "--alpha", "2", "--beta", "2", "--k-max", "3"],
        {},
    ),
    # a billion vertices and no edges (q < delta_max): every k is feasible,
    # but its witness must not be built
    "spectrum-edgeless-too-many-vertices": (
        ["spectrum", "--n", "1000000000", "--r", "4", "--q", "1", "--sigma", "2,2",
         "--alpha", "2", "--beta", "2", "--k-max", "3"],
        {},
    ),
    # 100,000 vertices, each witness within its limit, but one per k: the
    # spectrum's witnesses would hold 10**10 vertices
    "spectrum-edgeless-too-many-witness-vertices": (
        ["spectrum", "--n", "25000", "--r", "10", "--q", "4", "--sigma", "5,5",
         "--alpha", "2", "--beta", "2"],
        {},
    ),
    "engine-k-zero-with-output": (
        ["construct", *GAP_FLAGS, "--kind", "engine", "--k", "0",
         "--output", "{dir}/report.json"], {},
    ),
    "negative-budget": (["spectrum", *GAP_FLAGS, "--budget", "-5"], {}),
    "colouring-n-bool": (
        # one class, so n=true would pass as n=1
        ["check", "--n", "1", "--r", "4", "--q", "2", "--sigma", "2,2",
         "--alpha", "2", "--beta", "2", "--colouring-file", "{colouring}"],
        {"colouring": {"n": True, "q": 2, "classes": [[0, 1]]}},
    ),
    # the schema forbids other fields; the colouring is otherwise valid
    "colouring-unknown-field": (
        ["check", "--n", "3", "--r", "4", "--q", "2", "--sigma", "2,2",
         "--alpha", "2", "--beta", "2", "--colouring-file", "{colouring}"],
        {"colouring": {"n": 3, "q": 2, "classes": [[0, 1], [0, 1], [2, 2]],
                       "extra": 1}},
    ),
    "colouring-shape-mismatch": (
        ["check", *A2_FLAGS, "--colouring-file", "{colouring}"],
        {"colouring": {"n": 3, "q": 2, "classes": [[0, 1], [0, 2], [0, 3]]}},
    ),
    # the classes agree in length, but not with the declared q
    "colouring-classes-not-q-long": (
        ["check", *A2_FLAGS, "--colouring-file", "{colouring}"],
        {"colouring": {"n": 5, "q": 3, "classes": [[0, 1]] * 5}},
    ),
    "spec-file-deeply-nested": (
        ["spectrum", "--spec-file", "{spec}"], {"spec": b"[" * 20_000},
    ),
    "colouring-file-deeply-nested": (
        ["check", *A2_FLAGS, "--colouring-file", "{colouring}"],
        {"colouring": b"[" * 20_000},
    ),
    "unknown-suite": (["verify", "--suite", "nonsense"], {}),
    # walks need alpha = 2, whatever k the start would have
    "walk-alpha-3-start-k": (
        ["walk", "--n", "4", "--r", "4", "--q", "3", "--sigma", "2,2",
         "--alpha", "3", "--beta", "4", "--direction", "down", "--start-k", "2"],
        {},
    ),
    "output-dir-missing-json": (
        ["spectrum", *GAP_FLAGS, "--output", "{dir}/missing/report.json"], {},
    ),
    "output-dir-missing-csv": (
        ["spectrum", *GAP_FLAGS, "--format", "csv", "--output", "{dir}/missing/x"],
        {},
    ),
    "output-dir-missing-verify": (
        ["verify", "--suite", "gaps", "--output", "{dir}/missing/x"], {},
    ),
    "output-is-a-dir-json": (["spectrum", *GAP_FLAGS, "--output", "{dir}"], {}),
    "output-is-a-dir-csv": (
        ["spectrum", *GAP_FLAGS, "--format", "csv", "--output", "{dir}"], {},
    ),
    "output-is-a-dir-raw": (
        ["construct", *GAP_FLAGS, "--kind", "beta", "--raw", "--output", "{dir}"],
        {},
    ),
    "output-is-a-dir-check": (
        ["check", *A2_FLAGS, "--colouring-file", "{colouring}",
         "--output", "{dir}"],
        {"colouring": {"n": 5, "q": 2, "classes": [[0, j + 1] for j in range(5)]}},
    ),
    "output-is-a-dir-verify": (
        ["verify", "--suite", "zone-only", "--output", "{dir}"], {},
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(case, capsys, tmp_path):
    argv, files = BAD_INPUTS[case]
    paths = {}
    for name, payload in files.items():
        paths[name] = tmp_path / f"{name}.json"
        if isinstance(payload, bytes):
            paths[name].write_bytes(payload)
        else:
            paths[name].write_text(json.dumps(payload), encoding="utf-8")
    argv = [arg.format(dir=tmp_path, **paths) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argument
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == \
        err.splitlines()[-1:]
    # a failed run leaves no output file behind
    assert sorted(tmp_path.iterdir()) == sorted(paths.values())


def test_unwritable_output_exits_2_before_work(capsys, tmp_path, monkeypatch):
    # the tests may run as root, which may write anywhere, so the denial
    # is simulated
    monkeypatch.setattr("os.access", lambda path, mode: False)
    target = tmp_path / "x"
    code, out, err = run(capsys, ["spectrum", *GAP_FLAGS, "--output", str(target)])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: cannot write --output: [Errno 13] Permission denied: '{target}'"]
    assert not target.exists()


APPENDIX_FLAGS = ["--n", "7", "--r", "12", "--q", "6", "--sigma", "6,6"]
# (argv, start colouring or None): each trips --budget 1 in the engine
BUDGET_TRIPS = {
    # an instance the walk applies to, so the start's search runs
    "walk-start-k": (
        ["walk", *TestWalkCommand.FLAGS, "--direction", "down", "--start-k", "6"],
        None,
    ),
    # classes 2i and 2i+1 share a palette, so once the last class is
    # solid no local move applies and the walk falls back to the engine
    "walk-engine-fallback": (
        ["walk", "--n", "5", "--r", "6", "--q", "6", "--sigma", "3,3",
         "--alpha", "2", "--beta", "6", "--direction", "down",
         "--start-file", "{start}"],
        [[(i // 2) * 3 + j % 3 for j in range(6)] for i in range(5)],
    ),
    "construct-engine": (
        ["construct", *APPENDIX_FLAGS, "--alpha", "3", "--beta", "3",
         "--kind", "engine", "--k", "4"], None,
    ),
}


@pytest.mark.parametrize("case", sorted(BUDGET_TRIPS))
def test_budget_trip_exits_3_with_one_line(case, capsys, tmp_path):
    argv, classes = BUDGET_TRIPS[case]
    start = tmp_path / "start.json"
    if classes is not None:
        start.write_text(json.dumps(
            {"n": len(classes), "q": len(classes[0]), "classes": classes}))
    argv = [arg.format(start=start) for arg in argv] + ["--budget", "1"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_walk_diagnostic_exits_1_with_one_line(capsys, tmp_path, monkeypatch):
    # the fallback instance of BUDGET_TRIPS with an engine that finds no
    # adjacent colouring: the walk's TheoremViolationError becomes exit 1
    argv, classes = BUDGET_TRIPS["walk-engine-fallback"]
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"n": len(classes), "q": len(classes[0]),
                                 "classes": classes}))
    monkeypatch.setattr("sigma_spectra.constructions.k_colourable",
                        lambda *args, **kwargs: None)
    code, out, err = run(capsys, [arg.format(start=start) for arg in argv])
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["walk diagnostic: walk stuck at 7 colours and k=6 is "
                                "infeasible; contradicts the no-gap law"]


ODD = st.sampled_from(["0", "-1", "x", "1.5", ""])
BUDGETS = st.sampled_from(["1", "30", "300"])


@st.composite
def cli_case(draw):
    """A random argv for every subcommand but ``verify``, whose suites take
    seconds, and the text of the colouring file it may name.  Instances
    stay tiny and every search gets a small budget."""

    def value(valid):  # one value in eight is zero, negative or not a number
        return draw(ODD) if draw(st.integers(0, 7)) == 7 else str(draw(valid))

    parts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    alpha = draw(st.integers(2, 4))
    fields = {
        "--n": value(st.just(n)),
        "--r": value(st.just(sum(parts))),
        "--q": value(st.just(q)),
        "--sigma": value(st.just(",".join(map(str, parts)))),
        "--alpha": value(st.just(alpha)),
        "--beta": value(st.integers(alpha, 5)),
    }
    command = draw(st.sampled_from(["spectrum", "check", "construct", "walk"]))
    argv = [command]
    for flag, text in fields.items():
        if draw(st.integers(0, 15)):
            argv += [flag, text]
    k = st.integers(1, 6)
    if command == "spectrum":
        argv += ["--budget", value(BUDGETS), "--k-max", value(k),
                 "--format", draw(st.sampled_from(["json", "csv"]))]
    elif command == "check":
        argv += ["--colouring-file", "{colouring}"]
    elif command == "construct":
        argv += ["--budget", value(BUDGETS), "--kind",
                 draw(st.sampled_from(["mono", "layered", "beta", "engine"]))]
        if draw(st.integers(0, 7)):
            argv += ["--k", value(k)]
        if draw(st.booleans()):
            argv.append("--raw")
    else:
        argv += ["--budget", value(BUDGETS),
                 "--direction", draw(st.sampled_from(["up", "down"]))]
        start = draw(st.sampled_from(["k", "file", "none"]))
        if start == "k":
            argv += ["--start-k", value(k)]
        elif start == "file":
            argv += ["--start-file", "{colouring}"]
    classes = draw(st.lists(st.lists(st.integers(0, 5), min_size=q, max_size=q),
                            min_size=n, max_size=n))
    colouring = draw(st.sampled_from([
        json.dumps({"n": n, "q": q, "classes": classes}),
        json.dumps({"n": n + 1, "q": q, "classes": classes}),
        json.dumps({"n": n, "q": q, "classes": [[-1] * q] * n}),
        '{"n": true, "q": 1, "classes": [[0]]}', "", "{", "null", "[" * 5000,
    ]))
    return argv, colouring


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_case())
def test_fuzzed_argv_never_tracebacks(case, tmp_path):
    argv, colouring = case
    path = tmp_path / "colouring.json"
    path.write_text(colouring, encoding="utf-8")
    argv = [arg.format(colouring=path) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argument
            code = exc.code
    assert code in {0, 1, 2, 3}, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
