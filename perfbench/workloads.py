"""Workloads, their generated inputs, output checks and the metric catalogue.

This module runs in the benchmark process and never imports ``amenlab``:
the program only sees the inputs built here, inside fresh job processes.
The workload seed S drives every random input; jobs with no random input
(exact certificates, pattern counts) are the same for every seed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable
from fractions import Fraction

DEFAULT_SEED = 1

# End-to-end metrics: (name, unit, better, bound).  Every workload reports
# all of them.  wall_s is the sum over the workload's jobs of each job's
# median time; the per-job medians themselves are printed on stderr.  The
# time bounds are wide because CPU-bound timings on a shared 2-vCPU machine
# drift by 10-20% between runs a few minutes apart, whatever the statistic.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# Per-layer metrics of the traced run: (name, unit, what it should move).
# A name ending in _s is self time summed over spans; the others are exact
# counts.  Layers a workload does not call read 0 there.
PER_LAYER = [
    ("groups.neighbors_s", "s", "codec wall_s, job.sweep_s, code_bits_per_s; brudno unchanged"),
    ("groups.neighbors.calls", "count", "codec job.sweep_s"),
    ("groups.multiply_s", "s", "codec wall_s, job.sweep_s, code_bits_per_s"),
    ("groups.multiply.calls", "count", "codec job.sweep_s"),
    ("groups.generator_boundary_s", "s", "codec job.sweep_s"),
    ("groups.translate_s", "s", "exact job.tile_s"),
    ("folner.subset_s", "s", "brudno job.*, sft job.golden_s (1024 cold builds)"),
    ("folner.subset.sites", "count", "brudno job.*, sft job.golden_s"),
    ("folner.product_size_s", "s", "exact job.tempered_s"),
    ("folner.product_size.pairs", "count", "exact job.tempered_s"),
    ("folner.temperedness_constant_s", "s", "exact job.tempered_s"),
    ("folner.defect_report_s", "s", "codec job.defect_s"),
    ("folner.description_bits_s", "s", "codec job.defect_s"),
    ("setcodec.random_connected_subset_s", "s", "codec job.sweep_s"),
    ("setcodec.encode_connected_s", "s", "codec job.sweep_s"),
    ("setcodec.decode_connected_s", "s", "codec job.sweep_s"),
    ("setcodec.code_length_s", "s", "codec job.sweep_s"),
    ("setcodec.bits", "count", "codec code_bits_per_s"),
    ("quasitiling.plan_s", "s", "exact job.tile_s"),
    ("quasitiling.cover_s", "s", "exact job.tile_s"),
    ("quasitiling.verify_cover_s", "s", "exact job.tile_s"),
    ("quasitiling.tiles", "count", "exact job.tile_s"),
    ("stochastic.sample_s", "s", "brudno sites_per_s"),
    ("stochastic.sites", "count", "brudno sites_per_s"),
    ("symbolic.cont_s", "s", "brudno sites_per_s"),
    ("symbolic.count_2d_s", "s", "sft job.hardsq_s"),
    ("symbolic.count_1d_s", "s", "sft job.golden_s"),
    ("symbolic.patterns", "count", "sft job.hardsq_s (patterns on 2-D windows)"),
    ("complexity.freq_encode_s", "s", "brudno sites_per_s, job.*; a little of codec job.defect_s"),
    ("complexity.freq_decode_s", "s", "brudno job.roundtrip_s"),
    ("complexity.lz78_encode_s", "s", "brudno sites_per_s"),
    ("complexity.lz78_decode_s", "s", "brudno job.roundtrip_s"),
    ("complexity.freq.bits", "count", "brudno sites_per_s"),
    ("complexity.lz78.bits", "count", "brudno sites_per_s"),
    ("cli.residual_s", "s", "brudno job.bernoulli_s, job.markov_s; exact job.tempered_s"),
    ("trace.overhead_frac", "ratio", "nothing: cost of tracing itself"),
]


@dataclass(frozen=True)
class Job:
    """One job: a task run in a fresh process on generated inputs.

    ``layers`` names the single-pass decomposition a traced run uses for a
    CLI job; API-driven jobs time their layers in ``task`` itself.
    """

    name: str
    task: str
    inputs: dict
    layers: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list[Job]]
    rate: tuple | None = None  # (metric, unit) of work units per second


def _argv(head, opts):
    argv = list(head)
    for key in ("group", "family", "measure", "estimator", "upto", "seed", "eps", "i", "file"):
        if key in opts:
            argv += [f"--{key}", str(opts[key])]
    return argv


def _brudno(seed):
    bernoulli = {"group": "z2", "family": "dyadic", "measure": "bernoulli:0.9,0.1",
                 "estimator": "all", "upto": 8, "seed": seed}
    markov = {"group": "z", "family": "dyadic", "measure": "markov:[[0.5,0.5],[1,0]]",
              "estimator": "all", "upto": 16, "seed": seed}
    roundtrip = {"group": "z", "measure": "bernoulli:0.9,0.1", "log2_sites": 16, "seed": seed}
    run = ["brudno", "run"]
    return [
        Job("bernoulli", "cli", {**bernoulli, "argv": [_argv(run, bernoulli)]}, "brudno_layers"),
        Job("markov", "cli", {**markov, "argv": [_argv(run, markov)]}, "brudno_layers"),
        Job("roundtrip", "roundtrip", roundtrip),
    ]


def _codec(seed):
    rng = random.Random(seed)
    # sizes are a fixed ladder so every seed does the same amount of work;
    # the seed picks the shapes
    sets = [[gid, size, rng.getrandbits(63)]
            for gid in ("z", "z2", "h3") for size in range(5, 201, 5)]
    defect = {"group": "z2", "family": "boxes", "upto": 32}
    return [
        Job("sweep", "sweep", {"sets": sets}),
        Job("defect", "cli", {**defect, "argv": [_argv(["folner", "defect"], defect)]},
            "defect_layers"),
    ]


def _exact(seed):
    commands = [{"group": "z", "family": "dyadic", "upto": 12},
                {"group": "h3", "family": "boxes", "upto": 6}]
    tempered = {"commands": commands,
                "argv": [_argv(["folner", "tempered"], c) for c in commands]}
    # horizon is the CLI's default, passed on to the decomposition
    tile = {"group": "z2", "family": "boxes", "eps": "1/4", "i": 40, "horizon": 64}
    return [
        Job("tempered", "cli", tempered, "tempered_layers"),
        Job("tile", "cli", {**tile, "argv": [_argv(["tile"], tile)]}, "tile_layers"),
    ]


def _sft(seed):
    hardsq = {"file": "perfbench/inputs/hardsquares.sft", "family": "boxes", "upto": 5,
              "rect": [5, 6]}
    golden = {"file": "perfbench/inputs/golden.sft", "family": "boxes", "upto": 1024}
    entropy = ["entropy", "sft"]
    return [
        Job("hardsq", "hardsq", {**hardsq, "argv": [_argv(entropy, hardsq)]}, "sft_layers"),
        Job("golden", "cli", {**golden, "argv": [_argv(entropy, golden)]}, "sft_layers"),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("brudno", "brudno run and a coder roundtrip: complexity.* (freq, lz78), "
             "stochastic.sample and folner.subset move its wall_s; no Cayley stepping, so "
             "groups.* changes should not move it", _brudno, ("sites_per_s", "1/s")),
    Workload("codec", "codec sweep on z, z2, h3 plus folner defect: groups.multiply, "
             "groups.neighbors and setcodec.* move its wall_s (job.sweep_s); no sampling, "
             "lz78 or pattern counting", _codec, ("code_bits_per_s", "1/s")),
    Workload("exact", "folner tempered and tile certificates: folner.product_size, "
             "groups.translate and quasitiling.* move its wall_s; bulk translation rather "
             "than single Cayley steps", _exact),
    Workload("sft", "entropy sft on hard squares (symbolic.count_2d, backtracking) and the "
             "golden mean shift (symbolic.count_1d, 1024 cold folner.subset builds): the only "
             "pattern counting", _sft),
)}


# -- output checks ---------------------------------------------------------------

# sha256 of the CSV body (lines not starting with '#') of each CLI command
# at the default seed; commands without a seed read the same for any seed
DIGESTS = {
    "brudno run --group z2 --family dyadic --measure bernoulli:0.9,0.1 --estimator all --upto 8 --seed 1":
        "eba89bba36429a095de2bfaa7cb068b79659353d2df96e919800dcd0999828a9",
    "brudno run --group z --family dyadic --measure markov:[[0.5,0.5],[1,0]] --estimator all --upto 16 --seed 1":
        "c13600bc85b7c736fba7efdb62e215f605496b50c1e1cdafa3a9f7b255b197f6",
    "folner defect --group z2 --family boxes --upto 32":
        "644e051849f6a2f048fd58c2d1111a4c4ce1fae57a7408b5b03aa548ae4229a8",
    "folner tempered --group z --family dyadic --upto 12":
        "dff588b12ea22c452632adbeb94bc1b944dfbfbead952e8954b473ee8a51b045",
    "folner tempered --group h3 --family boxes --upto 6":
        "a0ff55a20fd4b2ebb3fd3b9f56ae3e8256d5a73cf6ea31be9c0c8c230fa919a8",
    "tile --group z2 --family boxes --eps 1/4 --i 40":
        "0d4cebe866296509c7cc667fb479fbce10c10f3f962ab521d4526f7eb3177093",
    "entropy sft --family boxes --upto 5 --file perfbench/inputs/hardsquares.sft":
        "710c024b28d1251021e68260bb1f51b31472c67c9f5d993c2a22e96288b4c4df",
    "entropy sft --family boxes --upto 1024 --file perfbench/inputs/golden.sft":
        "e65629714732ab6624062df5f79cf1e0f821ae94ade8d4a836ef037ff6dbdcb7",
}


def body_of(out: str) -> str:
    return "".join(line for line in out.splitlines(keepends=True) if not line.startswith("#"))


def _rows(step) -> list[dict]:
    rows = list(csv.DictReader(body_of(step["out"]).splitlines()))
    if not rows:
        raise ValueError("empty CSV payload")
    return rows


def _entropy(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0)


def _bernoulli_entropy(measure: str) -> float:
    return _entropy(float(Fraction(p)) for p in measure.split(":", 1)[1].split(","))


def _top_rates(step) -> dict[str, float]:
    rows = _rows(step)
    last = max(int(r["i"]) for r in rows)
    return {r["estimator"]: float(r["rate"]) for r in rows if int(r["i"]) == last}


def _bernoulli_rates(rates, h) -> list[str]:
    # criteria 09 and 10: freq within 0.02 of H, lz78 at most H + 0.15,
    # both at least H - 0.03
    bad = []
    if abs(rates["freq"] - h) > 0.02:
        bad.append(f"freq rate {rates['freq']} not within 0.02 of H = {h:.4f}")
    if rates["lz78"] > h + 0.15:
        bad.append(f"lz78 rate {rates['lz78']} above H + 0.15")
    bad += [f"{k} rate {v} below H - 0.03" for k, v in rates.items() if v < h - 0.03]
    return bad


def _check_bernoulli(inp, result):
    return _bernoulli_rates(_top_rates(result["steps"][0]), _bernoulli_entropy(inp["measure"]))


def _check_markov(inp, result):
    # criterion 11: lz78 in [0.64, 0.87], freq near the order-0 ceiling
    rates = _top_rates(result["steps"][0])
    bad = []
    if not 0.64 <= rates["lz78"] <= 0.87:
        bad.append(f"lz78 rate {rates['lz78']} outside [0.64, 0.87]")
    if abs(rates["freq"] - _entropy((2 / 3, 1 / 3))) >= 0.02:
        bad.append(f"freq rate {rates['freq']} not within 0.02 of 0.9183")
    return bad


def _check_roundtrip(inp, result):
    bad = [f"{name} decode(encode(w)) != w" for name in ("freq", "lz78")
           if not result[name]["roundtrip"]]
    rates = {name: result[name]["bits"] / result["sites"] for name in ("freq", "lz78")}
    return bad + _bernoulli_rates(rates, _bernoulli_entropy(inp["measure"]))


def _check_sweep(inp, result):
    bad = list(result["bad"])
    if result["sets"] != len(inp["sets"]):
        bad.append(f"{result['sets']} of {len(inp['sets'])} sets coded")
    return bad


def _check_defect(inp, result):
    # criterion 03: box defects are exactly 1/n
    return [f"defect at i={r['i']} is {r['max_defect_num']}/{r['max_defect_den']}"
            for r in _rows(result["steps"][0])
            if (r["max_defect_num"], r["max_defect_den"]) != ("1", r["i"])]


TEMPERED_AT_UPTO = {"z": Fraction(6143, 4096), "h3": Fraction(1625, 324)}


def _check_tempered(inp, result):
    bad = []
    for opts, step in zip(inp["commands"], result["steps"], strict=True):
        rows = _rows(step)
        values = [Fraction(int(r["tempered_num"]), int(r["tempered_den"])) for r in rows]
        if values[-1] != TEMPERED_AT_UPTO[opts["group"]]:
            bad.append(f"{opts['group']} constant {values[-1]} at i={rows[-1]['i']}")
        # criterion 04: dyadic windows on z are tempered with K <= 3/2
        if opts["group"] == "z" and max(values) > Fraction(3, 2):
            bad.append(f"z dyadic constant {max(values)} above 3/2")
    return bad


def _check_tile(inp, result):
    if "holds" in result:
        holds = result["holds"]
    else:
        holds = [r["holds"] == "True" for r in _rows(result["steps"][0])
                 if r["kind"] == "assertion"]
    return [] if holds == [True] * 4 else [f"tiling assertions {holds}"]


HARD_SQUARES = {25: 55447, 30: 454385}  # admissible patterns on 5x5 and 5x6


def _check_hardsq(inp, result):
    bad = []
    top = _rows(result["steps"][0])[-1]
    if int(top["size"]) != 25 or top["bits"] != f"{math.log2(HARD_SQUARES[25]):.6f}":
        bad.append(f"5x5 row {top} does not encode {HARD_SQUARES[25]} patterns")
    if result["rect_count"] != HARD_SQUARES[30]:
        bad.append(f"5x6 count {result['rect_count']} != {HARD_SQUARES[30]}")
    return bad


def _check_golden(inp, result):
    # criterion 07: golden mean entropy within 0.02 at length 32
    h = math.log2((1 + math.sqrt(5)) / 2)
    return [f"rate {r['rate']} at length {r['i']} not within 0.02 of {h:.6f}"
            for r in _rows(result["steps"][0])
            if r["i"] in ("32", str(inp["upto"])) and abs(float(r["rate"]) - h) > 0.02]


CHECKS = {
    "bernoulli": _check_bernoulli,
    "markov": _check_markov,
    "roundtrip": _check_roundtrip,
    "sweep": _check_sweep,
    "defect": _check_defect,
    "tempered": _check_tempered,
    "tile": _check_tile,
    "hardsq": _check_hardsq,
    "golden": _check_golden,
}


def check(job: Job, result) -> list[str]:
    """Problems found in one job's result; empty when the output is correct.

    Never raises: a malformed result is reported as a problem.
    """
    try:
        bad = []
        for step in result.get("steps", ()):
            # decompositions that reproduce a command's payload name it too
            command = " ".join(step.get("argv", ()))
            if step.get("rc", 0) != 0:
                bad.append(f"{command}: exit code {step['rc']}")
                continue
            want = DIGESTS.get(command)
            got = hashlib.sha256(body_of(step["out"]).encode()).hexdigest()
            if want is not None and got != want:
                bad.append(f"{command}: payload digest {got[:12]} != {want[:12]}")
        return bad or CHECKS[job.name](job.inputs, result)
    except Exception as exc:  # a corrupt payload is a failed job, not a crash
        return [f"unreadable result: {exc!r}"]


def work_units(job: Job, result) -> int:
    """Units behind a workload's rate metric: window sites coded (encoded
    plus decoded, summed over estimators) or set-codec bits (encoded plus
    decoded)."""
    if job.name in ("bernoulli", "markov"):
        return sum(int(r["size"]) for r in _rows(result["steps"][0]))
    if job.name == "roundtrip":
        return 4 * result["sites"]
    if job.name == "sweep":
        return 2 * result["bits"]
    return 0
