"""Job bodies, run one per fresh interpreter by ``child.py``.

Each task takes the job's generated inputs and a recorder and returns a
JSON-able result that ``workloads.check`` verifies.  CLI tasks call
``amenlab.cli.main`` exactly as the ``amenlab`` console script does.  The
``*_layers`` tasks are the single-pass decompositions used by traced runs:
they compute the same result through the layers' public functions, with a
span around each call into a layer, so every layer is timed alone on the
job's own inputs.  API-driven jobs (roundtrip, sweep) are already written
that way and serve as their own decomposition.
"""

from __future__ import annotations

import contextlib
import csv
import io
from fractions import Fraction
from math import log2

import amenlab.cli
from amenlab import folner, quasitiling
from amenlab.complexity import freq_decode, freq_encode, lz78_decode, lz78_encode
from amenlab.folner import (
    builtin_families,
    defect_report,
    description_bits,
    temperedness_constant,
)
from amenlab.groups import generator_boundary, get_group
from amenlab.quasitiling import cover, plan
from amenlab.setcodec import (
    code_length,
    decode_connected,
    encode_connected,
    random_connected_subset,
)
from amenlab.stochastic import MeasureSource, parse_measure
from amenlab.symbolic import admissible_patterns, cont, load_sft

from spans import traced

CODERS = (("freq", freq_encode, freq_decode), ("lz78", lz78_encode, lz78_decode))


def _cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = amenlab.cli.main(list(argv))
    return {"argv": list(argv), "rc": rc, "out": out.getvalue()}


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _family(opts):
    group = get_group(opts["group"])
    return group, builtin_families(group)[opts["family"]]


def _subset(rec, seq, i):
    # first request for a window in a fresh process: a cold build
    with rec.span("folner.subset"):
        F = seq.subset(i)
    rec.count("folner.subset.sites", len(F))
    return F


def _pairs(args, result):
    return "folner.product_size.pairs", len(args[1]) * len(args[2])


def cli_steps(inp, rec):
    return {"steps": [_cli(argv) for argv in inp["argv"]]}


# -- brudno ------------------------------------------------------------------


def brudno_layers(inp, rec):
    """``brudno run --estimator all`` in one pass: each window sampled once."""
    _, seq = _family(inp)
    source = MeasureSource(parse_measure(inp["measure"]), inp["seed"])
    words = []
    for i in seq.indices(inp["upto"]):
        F = _subset(rec, seq, i)
        with rec.span("stochastic.sample"):
            t = source.window(F)
        rec.count("stochastic.sites", len(F))
        with rec.span("symbolic.cont"):
            words.append((i, cont(t)))
    rows = []
    for name, encode, _ in CODERS:
        for i, w in words:
            with rec.span(f"complexity.{name}_encode"):
                bits = len(encode(source.alphabet, w))
            rec.count(f"complexity.{name}.bits", bits)
            rows.append([name, i, len(w), bits, f"{bits / len(w):.6f}"])
    header = ["estimator", "i", "size", "bits", "rate"]
    return {"steps": [{"argv": inp["argv"][0], "out": _csv(header, rows)}]}


def roundtrip(inp, rec):
    """Sample one dyadic window, then encode and decode it with each coder."""
    group = get_group(inp["group"])
    F = _subset(rec, builtin_families(group)["dyadic"], inp["log2_sites"])
    source = MeasureSource(parse_measure(inp["measure"]), inp["seed"])
    with rec.span("stochastic.sample"):
        t = source.window(F)
    rec.count("stochastic.sites", len(F))
    with rec.span("symbolic.cont"):
        w = cont(t)
    out = {"sites": len(w)}
    for name, encode, decode in CODERS:
        with rec.span(f"complexity.{name}_encode"):
            bits = encode(source.alphabet, w)
        rec.count(f"complexity.{name}.bits", len(bits))
        with rec.span(f"complexity.{name}_decode"):
            back = decode(source.alphabet, bits)
        out[name] = {"bits": len(bits), "roundtrip": back == w}
    return out


# -- codec -------------------------------------------------------------------


def sweep(inp, rec):
    """Codec round trips with the length law |T| + |ST \\ T| checked four ways."""
    bits_total = 0
    bad = []
    for gid, size, seed in inp["sets"]:
        group = get_group(gid)
        gens = group.generators
        with rec.span("setcodec.random_connected_subset"):
            T = random_connected_subset(group, size, seed)
        with rec.span("setcodec.encode_connected"):
            bits = encode_connected(group, T)
        with rec.span("setcodec.decode_connected"):
            back = decode_connected(group, bits)
        with rec.span("groups.multiply"):
            stepped = {group.multiply(s, t) for t in T for s in gens}
        rec.count("groups.multiply.calls", len(T) * len(gens))
        with rec.span("groups.neighbors"):
            adjacent = {n for t in T for n in group.neighbors(t)}
        rec.count("groups.neighbors.calls", len(T))
        with rec.span("groups.generator_boundary"):
            boundary = generator_boundary(group, T)
        with rec.span("setcodec.code_length"):
            length = code_length(group, T)
        rec.count("setcodec.bits", len(bits))
        bits_total += len(bits)
        law = stepped - set(T)
        if back != T:
            bad.append(f"{gid} size {size} seed {seed}: decode(encode(T)) != T")
        elif not (len(bits) == len(T) + len(law) == length and adjacent == stepped
                  and boundary == law):
            bad.append(f"{gid} size {size} seed {seed}: length law broken")
    return {"sets": len(inp["sets"]), "bits": bits_total, "bad": bad}


def defect_layers(inp, rec):
    """``folner defect``: per-index defect report and description size."""
    group, seq = _family(inp)
    rows = []
    for i in seq.indices(inp["upto"]):
        F = _subset(rec, seq, i)
        with rec.span("folner.defect_report"):
            d = defect_report(seq, i).max_defect
        with rec.span("folner.description_bits"):
            bits = description_bits(group, F)
        rows.append([i, len(F), d.numerator, d.denominator, bits])
    header = ["i", "size", "max_defect_num", "max_defect_den", "description_bits"]
    return {"steps": [{"argv": inp["argv"][0], "out": _csv(header, rows)}]}


# -- exact -------------------------------------------------------------------


def tempered_layers(inp, rec):
    """``folner tempered`` once per command, for its largest index only."""
    steps = []
    with contextlib.ExitStack() as stack:
        traced(stack, rec, folner, "product_size", "folner.product_size", _pairs)
        for opts in inp["commands"]:
            _, seq = _family(opts)
            for i in seq.indices(opts["upto"]):
                F = _subset(rec, seq, i)
            with rec.span("folner.temperedness_constant"):
                c = temperedness_constant(seq, opts["upto"])
            rows = [[opts["upto"], len(F), c.numerator, c.denominator]]
            steps.append({"out": _csv(["i", "size", "tempered_num", "tempered_den"], rows)})
    return {"steps": steps}


def tile_layers(inp, rec):
    """``tile``: plan, then cover one window; cover verifies its own result."""
    _, seq = _family(inp)
    with contextlib.ExitStack() as stack:
        traced(stack, rec, quasitiling, "product_size", "folner.product_size", _pairs)
        traced(stack, rec, quasitiling, "verify_cover", "quasitiling.verify_cover")
        traced(stack, rec, quasitiling, "translate_right", "groups.translate")
        with rec.span("quasitiling.plan"):
            tiling = plan(seq, Fraction(inp["eps"]), horizon=inp["horizon"])
        T = _subset(rec, seq, inp["i"])
        with rec.span("quasitiling.cover"):
            cov = cover(T, tiling, seq)
    tiles = sum(len(c) for c in cov.scale_centers.values())
    rec.count("quasitiling.tiles", tiles)
    rep = cov.report
    checks = (rep.tiles_inside, rep.residue_small, rep.mass_vs_covered, rep.mass_vs_total)
    return {"tiles": tiles, "holds": [c.holds for c in checks]}


# -- sft ---------------------------------------------------------------------


def _rect(sft, inp):
    width, height = inp["rect"]
    return [sft.group.encode((a, b)) for a in range(width) for b in range(height)]


def hardsq(inp, rec):
    """``entropy sft`` on hard squares, then the pinned count on a rectangle."""
    out = cli_steps(inp, rec)
    sft = load_sft(inp["file"])
    out["rect_count"] = admissible_patterns(sft, _rect(sft, inp))
    return out


def sft_layers(inp, rec):
    """``entropy sft``: one pattern count per window, plus the rectangle if any."""
    sft = load_sft(inp["file"])
    seq = builtin_families(sft.group)[inp["family"]]
    # admissible_patterns counts 1-D nearest-neighbour SFTs by transfer
    # matrices and everything else by backtracking over the patterns
    span = "symbolic.count_1d" if sft.group.dimension == 1 else "symbolic.count_2d"
    rows = []

    def count(F):
        with rec.span(span):
            n = admissible_patterns(sft, F)
        if sft.group.dimension > 1:
            rec.count("symbolic.patterns", n)
        return n

    for i in seq.indices(inp["upto"]):
        F = _subset(rec, seq, i)
        bits = log2(count(F))
        rows.append([i, len(F), f"{bits:.6f}", f"{bits / len(F):.6f}"])
    out = {"steps": [{"argv": inp["argv"][0], "out": _csv(["i", "size", "bits", "rate"], rows)}]}
    if "rect" in inp:
        out["rect_count"] = count(_rect(sft, inp))
    return out


TASKS = {
    "cli": cli_steps,
    "brudno_layers": brudno_layers,
    "roundtrip": roundtrip,
    "sweep": sweep,
    "defect_layers": defect_layers,
    "tempered_layers": tempered_layers,
    "tile_layers": tile_layers,
    "hardsq": hardsq,
    "sft_layers": sft_layers,
}
