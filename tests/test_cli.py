"""End-to-end command line runs against report files."""

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

from amenlab import cli, folner, groups, setcodec
from amenlab.cli import main
from amenlab.folner import builtin_families, temperedness_constant
from amenlab.groups import get_group
from amenlab.rng import derive, site_uniform
from amenlab.stochastic import MeasureSource

ROOT = Path(__file__).resolve().parent.parent


def payload(path):
    """Report bytes minus the timestamp line."""
    with open(path, "r", encoding="ascii") as fh:
        return "".join(ln for ln in fh if not ln.startswith("# generated"))


def data_rows(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("".join(lines))))
    return rows[0], rows[1:]


def test_folner_defect_report(tmp_path):
    out = tmp_path / "defect.csv"
    code = main(["folner", "defect", "--group", "z", "--upto", "6", "--out", str(out)])
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["i", "size", "max_defect_num", "max_defect_den", "description_bits"]
    assert rows[0] == ["1", "1", "1", "1", "3"]
    assert rows[-1] == ["6", "6", "1", "6", "8"]


def test_folner_tempered_report(tmp_path):
    out = tmp_path / "temp.csv"
    code = main(["folner", "tempered", "--group", "z", "--family", "dyadic",
                 "--upto", "10", "--out", str(out)])
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["i", "size", "tempered_num", "tempered_den"]
    assert rows[-1] == ["10", "1024", "1535", "1024"]


@pytest.mark.parametrize("group,upto", [("z", 40), ("h3", 5)])
def test_folner_tempered_every_row_is_its_prefix_constant(tmp_path, group, upto):
    out = tmp_path / "temp.csv"
    assert main(["folner", "tempered", "--group", group, "--family", "boxes",
                 "--upto", str(upto), "--out", str(out)]) == 0
    _, rows = data_rows(out)
    seq = builtin_families(get_group(group))["boxes"]
    assert [int(r[0]) for r in rows] == list(range(2, upto + 1))
    for i, size, num, den in rows:
        c = temperedness_constant(seq, int(i))
        assert (int(size), int(num), int(den)) == (
            len(seq.subset(int(i))), c.numerator, c.denominator)


@pytest.mark.parametrize("family,upto", [("dyadic", 0), ("boxes", 1)])
def test_folner_tempered_refuses_a_single_index(tmp_path, capsys, family, upto):
    out = tmp_path / "temp.csv"
    assert main(["folner", "tempered", "--group", "z", "--family", family,
                 "--upto", str(upto), "--out", str(out)]) == 2
    assert ("error: need at least two indices to witness temperedness"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv,rows,built", [
    (["folner", "defect", "--group", "z2", "--upto", "32"], 32, 32),
    (["folner", "tempered", "--group", "z", "--family", "dyadic", "--upto", "12"], 12, 13),
])
def test_folner_reports_build_each_window_once(tmp_path, monkeypatch, argv, rows, built):
    # a box window is built only as runs, from its sides (_box_runs)
    calls = []
    build = folner._box_runs
    monkeypatch.setattr(folner, "_box_runs", lambda group, n: calls.append(n) or build(group, n))
    out = tmp_path / "report.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert len(data_rows(out)[1]) == rows
    assert len(calls) == built


def test_modest_search_report(tmp_path):
    out = tmp_path / "modest.csv"
    code = main(["folner", "modest-search", "--group", "z", "--i", "4", "--out", str(out)])
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["element"]
    z = get_group("z")
    coords = {c for c, in z.parse_elements(r[0] for r in rows)}
    assert coords == set(range(-5, 6))
    with open(out, encoding="ascii") as fh:
        assert any(ln.strip() == "# size 11" for ln in fh)


def test_modest_search_budget_flag(tmp_path):
    out = tmp_path / "modest.csv"
    code = main(["folner", "modest-search", "--group", "z", "--i", "4",
                 "--cap", "10", "--out", str(out)])
    assert code == 3
    assert "# partial true" in payload(out)


def test_codec_roundtrip(tmp_path):
    set_file = tmp_path / "T.txt"
    set_file.write_text("Z2:(0,0)\nZ2:(1,0)\nZ2:(1,1)\n", encoding="ascii")
    bits = tmp_path / "bits.txt"
    back = tmp_path / "back.txt"
    assert main(["codec", "encode", "--group", "z2", "--set-file", str(set_file),
                 "--out", str(bits)]) == 0
    assert main(["codec", "decode", "--group", "z2", "--bits-file", str(bits),
                 "--out", str(back)]) == 0
    original = set(set_file.read_text().split())
    decoded = {ln for ln in back.read_text().split("\n")
               if ln and not ln.startswith("#")}
    assert decoded == original


def test_tile_report(tmp_path, capsys):
    out = tmp_path / "cover.csv"
    code = main(["tile", "--group", "z2", "--eps", "1/4", "--i", "12", "--out", str(out)])
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["kind", "scale", "element", "name", "lhs", "rhs", "holds"]
    centers = [r for r in rows if r[0] == "center"]
    # 2x2 tiles at eps=1/4 must be placed disjointly: 36 tiles at even coords
    assert len(centers) == 36
    assert {r[2] for r in centers} == {
        f"Z2:({a},{b})" for a in range(0, 12, 2) for b in range(0, 12, 2)
    }
    assertions = [r for r in rows if r[0] == "assertion"]
    assert [r[3] for r in assertions] == [
        "tiles_inside", "residue_small", "mass_vs_covered", "mass_vs_total"]
    assert all(r[6] == "True" for r in assertions)
    summary = capsys.readouterr().out
    assert "assertions:" in summary and "FAIL" not in summary


def test_entropy_golden_mean(tmp_path):
    sft = tmp_path / "golden.sft"
    sft.write_text("alphabet 0 1\nZ:0=1 Z:1=1\n", encoding="ascii")
    out = tmp_path / "entropy.csv"
    code = main(["entropy", "sft", "--file", str(sft), "--upto", "32", "--out", str(out)])
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["i", "size", "bits", "rate"]
    assert len(rows) == 32
    assert abs(float(rows[-1][3]) - 0.69424) < 0.02


def test_entropy_budget_partial(tmp_path):
    sft = tmp_path / "hard.sft"
    sft.write_text(
        "alphabet 0 1\nZ2:(0,0)=1 Z2:(1,0)=1\nZ2:(0,0)=1 Z2:(0,1)=1\n",
        encoding="ascii")
    out = tmp_path / "entropy.csv"
    code = main(["entropy", "sft", "--file", str(sft), "--upto", "6",
                 "--budget", "50", "--out", str(out)])
    assert code == 3
    text = payload(out)
    assert "# partial true" in text
    _, rows = data_rows(out)
    assert 0 < len(rows) < 6


def test_entropy_budget_partial_says_where_it_stopped(tmp_path, capsys):
    sft = tmp_path / "hard.sft"
    sft.write_text(
        "alphabet 0 1\nZ2:(0,0)=1 Z2:(1,0)=1\nZ2:(0,0)=1 Z2:(0,1)=1\n",
        encoding="ascii")
    out = tmp_path / "entropy.csv"
    assert main(["entropy", "sft", "--file", str(sft), "--upto", "6",
                 "--budget", "50", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "# stopped on window 3 after 46 work units\n"
    assert "stopped" not in payload(out)
    assert main(["entropy", "sft", "--file", str(sft), "--upto", "2",
                 "--budget", "50", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_entropy_sft_rejects_an_element_named_twice(tmp_path, capsys):
    sft = tmp_path / "twice.sft"
    sft.write_text("alphabet 0 1\nZ:0=1 Z:0=0\n", encoding="ascii")
    out = tmp_path / "entropy.csv"
    code = main(["entropy", "sft", "--file", str(sft), "--upto", "4", "--out", str(out)])
    assert code == 2
    assert "line 2: element Z:0 named twice" in capsys.readouterr().err
    assert not out.exists()


def test_entropy_sft_names_a_window_without_admissible_patterns(tmp_path, capsys):
    sft = tmp_path / "empty.sft"
    sft.write_text("alphabet 0 1\nZ2:(0,0)=0\nZ2:(0,0)=1\n", encoding="ascii")
    out = tmp_path / "entropy.csv"
    code = main(["entropy", "sft", "--file", str(sft), "--upto", "3", "--out", str(out)])
    assert code == 2
    assert "error: no admissible pattern on window 1 of size 1" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,name,text", [
    ("codec encode --group z --set-file", "T.txt", "Z:2000000000000\n"),
    ("entropy sft --upto 2 --file", "far.sft", "alphabet 0 1\nZ:0=1 Z:2000000000000=1\n"),
], ids=["codec encode", "entropy sft"])
def test_input_coordinate_out_of_range_exits_2(tmp_path, capsys, cmd, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    out = tmp_path / "out.txt"
    assert main(cmd.split() + [str(path), "--out", str(out)]) == 2
    assert ("error: coordinate 2000000000000 outside supported range +/-2**40"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("group,text,error", [
    ("z2", "Z2:(0,0)\nZ3:(0,0)\n", "cannot parse 'Z3:(0,0)' as an element of z2"),
    ("z2", "Z2:(1,)\n", "cannot parse 'Z2:(1,)' as an element of z2"),
    ("z2", "Z2:(0,0)\nZ2:(1,2,3)\n", "z2 elements have 2 coordinates"),
    ("z", "Z:(1,2)\n", "z elements have 1 coordinates"),
    ("z2", "Z2:(0,0)\n  not an element  \n", "cannot parse 'not an element' as an element of z2"),
    ("z3", "Z3:(0,0,0)\nZ3:(0,-1099511627777,0)\n",
     "coordinate -1099511627777 outside supported range +/-2**40"),
    # only the first bad line is reported, whatever the later one's fault
    ("z2", "Z2:(0,0)\nZ2:(1,2,3)\nZ2:(1,x)\n", "z2 elements have 2 coordinates"),
    ("z2", "Z2:(1,x)\nZ2:(1,2,3)\n", "cannot parse 'Z2:(1,x)' as an element of z2"),
    ("h3", "H3:(0,0,0)\nH3:(0,0,1099511627777)\nH3:(0,0)\n",
     "coordinate 1099511627777 outside supported range +/-2**40"),
], ids=["prefix", "empty coordinate", "arity", "arity on z", "garbage", "range",
        "arity first", "parse first", "range first"])
def test_codec_encode_reports_the_first_malformed_line(tmp_path, capsys, group, text, error):
    path = tmp_path / "T.txt"
    path.write_text(text, encoding="ascii")
    out = tmp_path / "bits.txt"
    assert main(["codec", "encode", "--group", group, "--set-file", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


def test_codec_encode_accepts_every_element_form_of_the_line(tmp_path):
    # Z:(3) and Z:-0 name the elements Z:3 and Z:0, so they encode the same bits
    bits = []
    for text in ("Z:0\nZ:1\nZ:2\nZ:3\n", "Z:-0\nZ:1\n  Z:2\nZ:(3)\n"):
        path = tmp_path / "T.txt"
        path.write_text(text, encoding="ascii")
        out = tmp_path / "bits.txt"
        assert main(["codec", "encode", "--group", "z", "--set-file", str(path),
                     "--out", str(out)]) == 0
        bits.append([ln for ln in out.read_text().splitlines() if not ln.startswith("#")])
    assert bits[0] == bits[1] == ["111100"]


@pytest.mark.parametrize("lines,error", [
    (["Z:0=1 Z:(1,)=1"], "cannot parse 'Z:(1,)' as an element of z"),
    # on each line, pair by pair: a repeat before a malformed element is named
    (["Z:0=1 Z:(0)=0 Z:(1,)=1"], "line 2: element Z:(0) named twice"),
    (["Z:0=1 Z:(1,)=1 Z:0=0"], "cannot parse 'Z:(1,)' as an element of z"),
    (["Z:0=1 Z:-0=0", "Z:(1,)=1"], "line 2: element Z:-0 named twice"),
    (["Z:0=1 Z:1=1", "Z:(1,2)=1 Z:1=1 Z:1=0"], "z elements have 1 coordinates"),
], ids=["malformed", "repeat first", "malformed first", "repeat on an earlier line",
        "arity"])
def test_entropy_sft_reports_the_first_bad_element(tmp_path, capsys, lines, error):
    path = tmp_path / "bad.sft"
    path.write_text("\n".join(["alphabet 0 1"] + lines) + "\n", encoding="ascii")
    out = tmp_path / "entropy.csv"
    assert main(["entropy", "sft", "--file", str(path), "--upto", "2", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,summary", [
    ("tile --group z2 --eps 1/4 --i 12",
     "plan eps=1/4 scales=(1, 2) threshold=32\n"
     "cover of F_12 (|T|=144): 36 tiles, 144/144 covered\n"
     "assertions: tiles_inside=ok residue_small=ok mass_vs_covered=ok mass_vs_total=ok\n"),
    ("tile --group z --family dyadic --eps 1/4 --i 10 --horizon 38",
     "plan eps=1/4 scales=(0, 1, 4, 8, 12, 16, 20, 24, 28, 32) threshold=35\n"
     "cover of F_10 (|T|=1024): 16 tiles, 1024/1024 covered\n"
     "assertions: tiles_inside=ok residue_small=ok mass_vs_covered=ok mass_vs_total=ok\n"),
])
def test_tile_summary_on_stderr_is_pinned(capsys, argv, summary):
    # the covered count is |T| less the report's residue, read from no other set
    assert main(argv.split()) == 0
    assert capsys.readouterr().err == summary


def test_tile_dyadic_window_past_the_coordinate_range_exits_2(tmp_path, capsys):
    # the planner asks for window 64 of z dyadic, whose far corner is 2**64 - 1
    out = tmp_path / "tile.csv"
    assert main(["tile", "--group", "z", "--family", "dyadic", "--eps", "3/4",
                 "--i", "5", "--out", str(out)]) == 2
    assert ("error: coordinate 18446744073709551615 outside supported range +/-2**40"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("group", ["z", "z2", "h3"])
def test_tile_dyadic_at_the_default_horizon_says_to_plan_to_a_smaller_one(tmp_path, capsys, group):
    out = tmp_path / "tile.csv"
    assert main(["tile", "--group", group, "--family", "dyadic", "--eps", "1/4",
                 "--i", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: coordinate 18446744073709551615 outside supported range +/-2**40 while "
        f"planning on window 64 of the {group} dyadic family: plan to a smaller horizon\n")
    assert not out.exists()


def test_tile_h3_boxes_plans_to_the_default_horizon_from_runs(tmp_path, monkeypatch):
    # the planner reads windows up to index 64 (4096 runs each) as runs, and
    # cover and verify_cover read the window covered and the tiles as runs;
    # no index tuple is built
    calls = []
    subset = folner.FolnerSequence.subset
    monkeypatch.setattr(folner.FolnerSequence, "subset",
                        lambda seq, i: calls.append(i) or subset(seq, i))
    out = tmp_path / "tile.csv"
    start = time.perf_counter()
    assert main(["tile", "--group", "h3", "--family", "boxes", "--eps", "1/4",
                 "--i", "6", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 60
    (note,) = [ln for ln in out.read_text().splitlines() if ln.startswith("# plan ")]
    assert note == "# plan scales=1,2 threshold=41"
    assert calls == []
    header, rows = data_rows(out)
    assert [r[-1] for r in rows if r[0] == "assertion"] == ["True"] * 4


@pytest.mark.parametrize("horizon", [30, 38])
def test_tile_z_dyadic_covers_with_the_tiles_that_fit(tmp_path, horizon):
    # the plan's scales from 12 up are windows of 2**12 sites and more (2**24
    # at horizon 30, 2**32 at 38); none fits in the 1,024 sites covered, so
    # cover builds none of them
    out = tmp_path / "tile.csv"
    start = time.perf_counter()
    assert main(["tile", "--group", "z", "--family", "dyadic", "--eps", "1/4", "--i", "10",
                 "--horizon", str(horizon), "--out", str(out)]) == 0
    assert time.perf_counter() - start < 10
    _, rows = data_rows(out)
    assert [r[-1] for r in rows if r[0] == "assertion"] == ["True"] * 4


def test_brudno_fair_coin(tmp_path):
    out = tmp_path / "rates.csv"
    code = main(["brudno", "run", "--group", "z", "--family", "dyadic",
                 "--measure", "bernoulli:0.5,0.5", "--estimator", "freq",
                 "--upto", "12", "--seed", "42", "--out", str(out)])
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["estimator", "i", "size", "bits", "rate"]
    last = rows[-1]
    assert last[0] == "freq" and last[2] == "4096"
    assert abs(float(last[4]) - 1.0) < 0.02


def test_brudno_all_estimators(tmp_path):
    out = tmp_path / "rates.csv"
    code = main(["brudno", "run", "--group", "z", "--family", "boxes",
                 "--measure", "bernoulli:0.5,0.5", "--estimator", "all",
                 "--upto", "5", "--seed", "1", "--out", str(out)])
    assert code == 0
    _, rows = data_rows(out)
    assert [r[0] for r in rows] == ["freq"] * 5 + ["lz78"] * 5
    assert [r[1] for r in rows[:5]] == [str(i) for i in range(1, 6)]


def test_brudno_samples_each_window_once(tmp_path, monkeypatch):
    # each window is read once as runs and sampled once; no index tuple is built
    calls = []
    word = MeasureSource.word

    def counting(self, runs):
        calls.append(len(runs))
        return word(self, runs)

    monkeypatch.setattr(MeasureSource, "word", counting)
    for name in ("window", "subset"):
        owner = MeasureSource if name == "window" else folner.FolnerSequence
        monkeypatch.setattr(owner, name, lambda *a, name=name: calls.append(name))
    out = tmp_path / "rates.csv"
    assert main(["brudno", "run", "--group", "z2", "--family", "boxes",
                 "--measure", "bernoulli:0.3,0.7", "--estimator", "all",
                 "--upto", "6", "--seed", "9", "--out", str(out)]) == 0
    assert calls == [i * i for i in range(1, 7)]
    _, rows = data_rows(out)
    assert [r[0] for r in rows] == ["freq"] * 6 + ["lz78"] * 6


def test_seeded_runs_byte_identical(tmp_path):
    argv = ["brudno", "run", "--group", "z2", "--family", "boxes",
            "--measure", "bernoulli:0.3,0.7", "--estimator", "all",
            "--upto", "6", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert payload(a) == payload(b)
    assert payload(a).count("\n") > 10


def test_config_file_preset_and_override(tmp_path):
    cfg = tmp_path / "preset.cfg"
    cfg.write_text("group=z\nfamily=boxes\nupto=8\n", encoding="ascii")
    out_a = tmp_path / "a.csv"
    assert main(["folner", "defect", "--config", str(cfg), "--out", str(out_a)]) == 0
    _, rows = data_rows(out_a)
    assert len(rows) == 8
    out_b = tmp_path / "b.csv"
    assert main(["folner", "defect", "--config", str(cfg), "--upto", "4",
                 "--out", str(out_b)]) == 0
    _, rows = data_rows(out_b)
    assert len(rows) == 4


def test_repair_demo(tmp_path):
    out = tmp_path / "repair.csv"
    code = main(["repair-demo", "--length", "800", "--flips", "16",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["length", "flips", "repair_bits", "freq_bits", "lz78_bits", "roundtrip_ok"]
    (row,) = rows
    assert row[5] == "True"
    assert int(row[2]) < int(row[3])  # sparse edits beat recoding from scratch


def test_stanza_shape(tmp_path):
    out = tmp_path / "defect.csv"
    main(["folner", "defect", "--group", "z", "--upto", "2", "--out", str(out)])
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "# amenlab 0.1.0"
    assert lines[1].startswith("# generated ")
    assert lines[2].startswith("# config ")
    assert "group=z" in lines[2] and "upto=2" in lines[2]


def test_usage_errors(tmp_path, capsys):
    assert main(["folner", "defect", "--group", "nope", "--upto", "3"]) == 2
    assert main(["folner", "defect", "--group", "z"]) == 2  # missing --upto
    assert main(["no-such-command"]) == 2
    assert main(["brudno", "run", "--group", "z", "--family", "boxes",
                 "--measure", "bernoulli:0.5,0.5", "--estimator", "huffman",
                 "--upto", "3", "--seed", "1"]) == 2
    assert main(["codec", "encode", "--group", "z",
                 "--set-file", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["codec", "encode", "--group", "z", "--set-file"],
    ["codec", "decode", "--group", "z", "--bits-file"],
    ["entropy", "sft", "--upto", "3", "--file"],
    ["folner", "defect", "--group", "z", "--upto", "3", "--config"],
], ids=["set-file", "bits-file", "sft-file", "config"])
def test_unreadable_input_files_report_the_os_error(tmp_path, capsys, argv):
    for path, text in ((tmp_path / "missing.txt", "[Errno 2] No such file or directory"),
                       (tmp_path, "[Errno 21] Is a directory")):
        assert main(argv + [str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {text}: '{path}'\n")


def test_threads_is_not_an_option(tmp_path, capsys):
    assert main(["brudno", "run", "--group", "z", "--family", "boxes",
                 "--measure", "bernoulli:0.5,0.5", "--estimator", "all",
                 "--upto", "3", "--seed", "1", "--threads", "2"]) == 2
    cfg = tmp_path / "preset.cfg"
    cfg.write_text("group=z\nupto=3\nthreads=2\n", encoding="ascii")
    assert main(["folner", "defect", "--config", str(cfg)]) == 2
    assert "'threads' does not match any option" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main([]) == 2


# -- parsers ---------------------------------------------------------------------

# Exit code, stdout and stderr of help, usage and error runs, captured at 80
# columns when every run built the whole parser tree.  Python 3.13's argparse
# wraps some usage lines elsewhere.
CLI_TEXT = json.loads((ROOT / "tests" / "cli_text.json").read_text(encoding="ascii"))


def _text_run(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "preset.cfg").write_text("group=z\nupto=three\n", encoding="ascii")
    code = main(list(argv))
    out, err = capsys.readouterr()
    out = "".join(ln for ln in out.splitlines(True) if not ln.startswith("# generated"))
    return {"argv": argv, "code": code, "stdout": out, "stderr": err}


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 wraps usage lines anew")
@pytest.mark.parametrize("case", CLI_TEXT, ids=[" ".join(c["argv"]) for c in CLI_TEXT])
def test_help_usage_and_error_text_is_pinned(tmp_path, monkeypatch, capsys, case):
    assert _text_run(tmp_path, monkeypatch, capsys, case["argv"]) == case


@pytest.mark.parametrize("argv", [c["argv"] for c in CLI_TEXT] + [
    ["folner", "defect", "--group", "z", "--upto", "2"],
    ["tile", "--group", "z", "--eps", "1/2", "--i", "2"],
    ["folner", "defect", "--up", "2", "--group=z"],
    ["folner", "modest-search", "--group", "z", "--i", "2", "--c", "5"],
    ["folner", "defect", "--group", "z", "--upto", "3", "-h"],
    ["folner", "defect", "--group", "z", "--upto", "3", "-x"],
    ["folner", "defect", "--", "--group", "z", "--upto", "3"],
    ["folner", "defect", "--config", "preset.cfg", "--upto", "2"],
    ["folner", "defect", "--config", "missing.cfg"],
    ["folner", "defect", "defect", "--group", "z", "--upto", "1"],
    ["tile", "tile"],
    ["brudno", "run", "--group", "z"],
    ["repair-demo", "--length", "3", "--flips", "4"],
], ids=" ".join)
def test_a_command_parser_alone_answers_as_the_full_tree(tmp_path, monkeypatch, capsys, argv):
    alone = _text_run(tmp_path, monkeypatch, capsys, argv)
    monkeypatch.setattr(cli, "_BY_WORDS", {})  # every run builds the full tree
    assert _text_run(tmp_path, monkeypatch, capsys, argv) == alone


def test_a_named_command_builds_its_parser_alone(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append((type(self), kwargs.get("prog")))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    out = tmp_path / "temp.csv"
    assert main(["folner", "tempered", "--group", "z", "--upto", "3", "--out", str(out)]) == 0
    # the command's parser and the --config pre-parser
    assert built == [(cli._Parser, "amenlab folner tempered"), (argparse.ArgumentParser, None)]

    def listed(argv):  # the subcommands named in the usage line
        assert main(argv + ["--help"]) == 0
        return capsys.readouterr().out.split("{")[1].split("}")[0].split(",")

    top = listed([])
    for words, *_ in cli._COMMANDS:
        assert words[0] in top and words[-1] in listed(list(words[:-1]))


def _subcommand(parser, word):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices[word]


@pytest.mark.parametrize("entry", cli._COMMANDS, ids=[" ".join(e[0]) for e in cli._COMMANDS])
def test_each_command_parser_has_the_options_it_has_in_the_full_tree(entry):
    tree = cli._build_parser()
    for word in entry[0]:
        tree = _subcommand(tree, word)
    alone = cli._command_parser(*entry)
    keys = ("option_strings", "dest", "nargs", "const", "default", "type", "choices",
            "required", "help", "metavar")
    specs = [[tuple(getattr(a, k) for k in keys) for a in p._actions] for p in (alone, tree)]
    assert specs[0] == specs[1]
    assert (alone.prog, alone._defaults) == (tree.prog, tree._defaults)


# -- config contract -------------------------------------------------------------


def test_abbreviated_flag_beats_preset(tmp_path):
    cfg = tmp_path / "preset.cfg"
    cfg.write_text("group=z\nupto=3\n", encoding="ascii")
    out = tmp_path / "a.csv"
    assert main(["folner", "defect", "--config", str(cfg), "--upt", "5",
                 "--out", str(out)]) == 0
    _, rows = data_rows(out)
    assert len(rows) == 5


@pytest.mark.parametrize("key", ["func", "cmd", "subcmd", "up"])
def test_preset_key_naming_no_option_exits_2(tmp_path, capsys, key):
    cfg = tmp_path / "preset.cfg"
    cfg.write_text(f"group=z\nupto=3\n{key}=5\n", encoding="ascii")
    assert main(["folner", "defect", "--config", str(cfg)]) == 2
    assert f"config key '{key}' does not match any option" in capsys.readouterr().err


def test_preset_value_is_typed_like_a_flag(tmp_path, capsys):
    cfg = tmp_path / "preset.cfg"
    cfg.write_text("group=z\nupto=three\n", encoding="ascii")
    assert main(["folner", "defect", "--config", str(cfg)]) == 2
    assert "invalid int value: 'three'" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, key, value, message", [
    ("folner defect --group z", "upto", "three", "invalid int value: 'three'"),
    ("brudno run --group z --measure bernoulli:0.5,0.5 --upto 3 --seed 1",
     "estimator", "nope", "invalid choice: 'nope'"),
])
def test_bad_preset_value_names_file_and_key(tmp_path, capsys, cmd, key, value, message):
    cfg = tmp_path / "preset.cfg"
    cfg.write_text(f"{key}={value}\n", encoding="ascii")
    assert main(cmd.split() + ["--config", str(cfg)]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"error: config file {cfg}, key '{key}': argument --{key}: {message}" in last
    # the same value typed as a flag keeps argparse's message alone
    assert main(cmd.split() + [f"--{key}", value]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f": error: argument --{key}: {message}" in last
    assert str(cfg) not in last
    # a good preset value does not take the blame for a bad flag
    cfg.write_text(f"{key}=all\n" if key == "estimator" else f"{key}=3\n", encoding="ascii")
    assert main(cmd.split() + ["--config", str(cfg), f"--{key}", value]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f": error: argument --{key}: {message}" in last
    assert str(cfg) not in last


NEGATIVE_BUDGETS = [
    ("entropy sft --file demos/hardsquares.sft --upto 6", "budget"),
    ("entropy sft --file demos/golden.sft --upto 6", "budget"),
    ("folner modest-search --group z --i 2", "cap"),
]


@pytest.mark.parametrize("cmd, key", NEGATIVE_BUDGETS)
def test_negative_budget_is_a_usage_error(tmp_path, monkeypatch, capsys, cmd, key):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.csv"
    assert main(cmd.split() + [f"--{key}", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f": error: argument --{key}: invalid natural value: '-1'" in err
    assert "stopped" not in err and not out.exists()
    cfg = tmp_path / "preset.cfg"
    cfg.write_text(f"{key}=-1\n", encoding="ascii")
    assert main(cmd.split() + ["--config", str(cfg), "--out", str(out)]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert (f"error: config file {cfg}, key '{key}': argument --{key}: "
            "invalid natural value: '-1'") in last
    assert not out.exists()


@pytest.mark.parametrize("cmd, key, code", [
    ("entropy sft --file demos/golden.sft --upto 3", "budget", 0),
    ("entropy sft --file demos/hardsquares.sft --upto 3", "budget", 3),
    ("folner modest-search --group z --i 2", "cap", 3),
])
def test_zero_budget_is_allowed(tmp_path, monkeypatch, cmd, key, code):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.csv"
    assert main(cmd.split() + [f"--{key}", "0", "--out", str(out)]) == code
    assert f"{key}=0" in payload(out)
    assert ("# partial true" in payload(out)) is (code == 3)


# One run of each subcommand and both budget-exhausted exits, each with the
# exit code and the sha256 of its report minus the '# generated' line.
FIXTURES = {
    "T.txt": "Z2:(0,0)\nZ2:(1,0)\nZ2:(1,1)\nZ2:(2,1)\n",
    "bits.txt": "110110000000\n",
    "golden.sft": "alphabet 0 1\nZ:0=1 Z:1=1\n",
    "hard.sft": "alphabet 0 1\nZ2:(0,0)=1 Z2:(1,0)=1\nZ2:(0,0)=1 Z2:(0,1)=1\n",
}
PINNED = [
    ("folner defect --group z2 --upto 5", 0,
     "28063cb67de6d7779507c0a147a09da3dbb68d3dd7ec45b4e8cff563c32729e9"),
    ("folner defect --group z3 --upto 6", 0,
     "de813d5e8951a3c94a013a3d2cb2ebabf5ecebce47dd35df622de963ebc51b28"),
    ("folner defect --group h3 --upto 4", 0,
     "e520e3f280294d3ac074b01b3854aceb9f7c3fd1e90fc776b1ead02d421a6317"),
    ("folner tempered --group h3 --upto 3", 0,
     "6326bf87e8657f5e4af3256521bca2732e4d9e4e349d24876d324746edb26b35"),
    ("folner modest-search --group z --i 3", 0,
     "821fe85b3c2e00491ec57c2d09b3bbd7cef907218c1f42d9f8b740043b4c1149"),
    ("folner modest-search --group z --i 4 --cap 10", 3,
     "72ebe1863c44a68d82fbf2d9d1824d76a81bac6ef9e8fa48976a98fb5626f0e1"),
    ("codec encode --group z2 --set-file T.txt", 0,
     "55a9f43412f70aca884028487b80b928f5e4f8de48a371227d1afdf5a9a266e6"),
    ("codec decode --group z2 --bits-file bits.txt", 0,
     "cc4a901d1f86f42d537b3d1619cd56d78f25bca268b4eda23a47f036d3e34619"),
    ("tile --group z2 --eps 1/4 --i 8", 0,
     "c13c42bd91eab7fc59751fab3435f0e7758ff700705919556d30ecf74b4abf85"),
    ("entropy sft --file golden.sft --upto 8", 0,
     "9be70d0ee4d0edd7a040eebdc2c65caa1ee107a46f14262b2466f1fd59346c65"),
    ("entropy sft --file hard.sft --upto 6 --budget 50", 3,
     "e3d9ecca8ab911dc6b40db96f1876dba1b4ec2b42f38a09bc3521e84709f4e05"),
    ("brudno run --group z2 --family boxes --measure bernoulli:0.3,0.7 --estimator all "
     "--upto 4 --seed 9", 0,
     "d647dd16edabf0cab2acf8e6563a467a48b8cdab086485bc4aaad93b11225b17"),
    ("brudno run --group z --family dyadic --measure markov:[[0.5,0.5],[1,0]] "
     "--estimator lz78 --upto 5 --seed 2", 0,
     "36c1aafa876cdc3af41539e12278613d8dae0e5121045d9db61b3998c298919d"),
    # rates on 2**20 sites of z, 1024**2 sites of z2 and 2**18 Markov sites:
    # every freq block is full, and the class sizes are large
    ("brudno run --group z --family dyadic --measure bernoulli:0.9,0.1 --estimator all "
     "--upto 20 --seed 1", 0,
     "a17452f9f8ed0ff9544454ee7ef8740f4dbc8cdd17f241a8975bffaf6d349ab1"),
    ("brudno run --group z2 --family dyadic --measure bernoulli:0.9,0.1 --estimator all "
     "--upto 10 --seed 1", 0,
     "950651efda1158252e3b10080e5d2c860cfa3cb0c7fa737884d6b0b451b37abd"),
    ("brudno run --group z --family dyadic --measure markov:[[0.5,0.5],[1,0]] "
     "--estimator all --upto 18 --seed 1", 0,
     "16708f306f95ece6ce77985d4cec746421c329ad1a8b8dcd837c06754fa099a0"),
    ("repair-demo --length 200 --flips 5 --seed 3", 0,
     "2acdc047b2db50de5337eca2ff1797cc2df4ec092717eb739f7f3564c3cc5d97"),
]


def _pinned_run(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in FIXTURES.items():
        (tmp_path / name).write_text(text, encoding="ascii")
    code = main(argv + ["--out", "r.csv"])
    return code, hashlib.sha256(payload("r.csv").encode("ascii")).hexdigest()


@pytest.mark.parametrize("command,code,digest", PINNED, ids=[c for c, _, _ in PINNED])
def test_payload_pinned(tmp_path, monkeypatch, capsys, command, code, digest):
    assert _pinned_run(tmp_path, monkeypatch, command.split()) == (code, digest)


def test_folner_defect_on_boxes_builds_and_decodes_nothing(tmp_path, monkeypatch):
    # each row reads seq.runs(i) once and hands those runs to the defect counts
    # and the description bound: no index tuple is built and no index decoded
    calls = []

    def spy(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(name) or fn(*a))

    spy(folner.FolnerSequence, "subset")
    spy(groups.ComputableGroup, "decode_array")
    for module in (groups, setcodec):
        spy(module, "unpack_coords")
    for command, code, digest in PINNED:
        if command.startswith("folner defect"):
            assert _pinned_run(tmp_path, monkeypatch, command.split()) == (code, digest)
    assert calls == []


def test_folner_defect_walks_only_where_the_code_word_can_win(tmp_path, monkeypatch):
    # the description bound runs the Cayley walk only on rows where the floor
    # of the code word's two lengths, from |F| and |SF \ F|, is below the box
    # and delta codes: z2 boxes of side 1 and 2 and h3's identity alone
    walks = []
    walk = groups.walk

    def spy(group, inside):
        walks.append(group.name)
        return walk(group, inside)

    monkeypatch.setattr(groups, "walk", spy)
    monkeypatch.setattr(setcodec, "walk", spy)  # the encoder's own name for it
    runs = [(command, code, digest) for command, code, digest in PINNED
            if command.startswith("folner defect")]
    runs += [("folner defect --group z2 --family boxes --upto 32", 0,
              "65af84d4ac774ed5d58d96be45545f272e2433e69a7d2dbb66062f4d6844105e"),
             ("folner defect --group z3 --family boxes --upto 48", 0,
              "e21feaefcd7c3490b3a78ce398ba616b44dff2826510f3a9f13c738697ecb28a")]
    counts = []
    for command, code, digest in runs:
        walks.clear()
        assert _pinned_run(tmp_path, monkeypatch, command.split()) == (code, digest)
        counts.append(len(walks))
    assert counts == [2, 0, 1, 2, 0]


@pytest.mark.parametrize("command,code,digest", PINNED, ids=[c for c, _, _ in PINNED])
def test_preset_alone_gives_the_pinned_payload(tmp_path, monkeypatch, capsys,
                                               command, code, digest):
    words = command.split()
    at = next(k for k, w in enumerate(words) if w.startswith("--"))
    flags = words[at:]
    preset = "".join(f"{flags[k][2:]}={flags[k + 1]}\n" for k in range(0, len(flags), 2))
    (tmp_path / "preset.cfg").write_text(preset, encoding="ascii")
    argv = words[:at] + ["--config", "preset.cfg"]
    assert _pinned_run(tmp_path, monkeypatch, argv) == (code, digest)


# -- input checks ----------------------------------------------------------------


@pytest.mark.parametrize("group", ["z2", "h3"])
def test_brudno_markov_needs_group_z(tmp_path, monkeypatch, capsys, group):
    calls = []
    for name in ("window", "word"):
        monkeypatch.setattr(MeasureSource, name, lambda self, F: calls.append(F))
    out = tmp_path / "rates.csv"
    assert main(["brudno", "run", "--group", group, "--family", "boxes",
                 "--measure", "markov:[[0.9,0.1],[0.5,0.5]]", "--estimator", "freq",
                 "--upto", "2", "--seed", "1", "--out", str(out)]) == 2
    assert "markov measure needs --group z" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("spec", [
    "bernoulli:1/0,1", "markov:[[0.5,0.5],[1,0]]]", "markov:[['a','b'],[1,0]]",
])
def test_brudno_refuses_malformed_measure_specs(tmp_path, capsys, spec):
    out = tmp_path / "rates.csv"
    assert main(["brudno", "run", "--group", "z", "--family", "dyadic", "--measure", spec,
                 "--estimator", "lz78", "--upto", "3", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_brudno_markov_ratios_match_decimals(tmp_path):
    bodies = []
    for spec in ("markov:[[0.5,0.5],[1,0]]", "markov:[[1/2,1/2],[1,0]]"):
        out = tmp_path / "rates.csv"
        assert main(["brudno", "run", "--group", "z", "--family", "dyadic", "--measure", spec,
                     "--estimator", "all", "--upto", "6", "--seed", "2", "--out", str(out)]) == 0
        bodies.append(data_rows(out))
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("length,flips,seed", [(300, 300, 7), (500, 17, -3), (1, 1, 2**70)])
def test_repair_demo_draws_the_per_site_uniforms(tmp_path, monkeypatch, length, flips, seed):
    drawn = []
    encode = cli.repair_encode

    def spy(alphabet, base, target):
        drawn.append((base, target))
        return encode(alphabet, base, target)

    monkeypatch.setattr(cli, "repair_encode", spy)
    assert main(["repair-demo", "--length", str(length), "--flips", str(flips),
                 "--seed", str(seed), "--out", str(tmp_path / "r.csv")]) == 0
    base = "".join("1" if site_uniform(seed, k) < 0.5 else "0" for k in range(length))
    ranks = sorted(range(length), key=lambda k: site_uniform(derive(seed, 1), k))
    flipped = set(ranks[:flips])
    target = "".join(("1" if base[k] == "0" else "0") if k in flipped else base[k]
                     for k in range(length))
    assert drawn == [(base, target)]


@pytest.mark.parametrize("flips", [-1, 21])
def test_repair_demo_rejects_flips_outside_the_word(tmp_path, capsys, flips):
    out = tmp_path / "repair.csv"
    assert main(["repair-demo", "--length", "20", "--flips", str(flips),
                 "--out", str(out)]) == 2
    assert "--flips must lie between 0 and --length" in capsys.readouterr().err
    assert not out.exists()
