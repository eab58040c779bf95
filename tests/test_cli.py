"""End-to-end command line runs against report files."""

import csv
import io

import pytest

from amenlab.cli import main
from amenlab.folner import builtin_families, temperedness_constant
from amenlab.groups import get_group
from amenlab.stochastic import MeasureSource


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


def test_modest_search_report(tmp_path):
    out = tmp_path / "modest.csv"
    code = main(["folner", "modest-search", "--group", "z", "--i", "4", "--out", str(out)])
    assert code == 0
    header, rows = data_rows(out)
    assert header == ["element"]
    z = get_group("z")
    coords = {z.decode(z.parse_element(r[0]))[0] for r in rows}
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


def test_entropy_sft_rejects_an_element_named_twice(tmp_path, capsys):
    sft = tmp_path / "twice.sft"
    sft.write_text("alphabet 0 1\nZ:0=1 Z:0=0\n", encoding="ascii")
    out = tmp_path / "entropy.csv"
    code = main(["entropy", "sft", "--file", str(sft), "--upto", "4", "--out", str(out)])
    assert code == 2
    assert "line 2: element Z:0 named twice" in capsys.readouterr().err
    assert not out.exists()


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
    calls = []
    window = MeasureSource.window

    def counting(self, F):
        calls.append(len(F))
        return window(self, F)

    monkeypatch.setattr(MeasureSource, "window", counting)
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
