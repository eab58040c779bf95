"""Batch command line front end writing reproducible CSV reports.

Every run emits a stanza of ``#`` comment lines (version, timestamp,
config echo) followed by a CSV payload.  With a fixed seed the payload is
byte identical across runs; only the ``# generated`` line varies, so
diff-based golden tests simply drop it.  A ``key=value`` config file can
preset any long option; argparse reads it as flags, and explicit flags win.
A run whose leading words name a command builds that command's parser alone;
the full tree is built when they name none, and to report unrecognized flags.

Exit codes: 0 success, 2 usage or input error, 3 budget exhausted (the
report written so far is flagged with ``# partial true``).
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from dataclasses import fields
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .complexity import (
    ESTIMATORS,
    freq_length,
    lz78_length,
    rate_series,
    repair_decode,
    repair_encode,
)
from .errors import BudgetExceededError
from .folner import (
    builtin_families,
    description_bits,
    generator_defect_counts,
    modest_search,
    temperedness_witnesses,
)
from .groups import CoordinateRangeError, get_group
from .quasitiling import DEFAULT_HORIZON, cover, plan
from .rng import derive, site_uniforms
from .setcodec import decode_connected, encode_connected
from .stochastic import MarkovMeasure, MeasureSource, parse_measure
from .symbolic import binary_alphabet, load_sft, topological_entropy_estimate


class UsageError(ValueError):
    """Bad flags, unresolvable ids, or malformed input files."""


def _family(group, name):
    families = builtin_families(group)
    if name not in families:
        raise UsageError(f"unknown family {name!r} (have {sorted(families)})")
    return families[name]


@contextmanager
def _open_out(args):
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_stanza(fh, args, partial=False):
    fh.write(f"# amenlab {__version__}\n")
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    fh.write(f"# generated {stamp}\n")
    # the report destination and preset path are not semantic config
    parts = [f"{key}={value}" for key, value in sorted(vars(args).items())
             if key not in ("func", "out", "config") and value is not None]
    fh.write("# config " + " ".join(parts) + "\n")
    if partial:
        fh.write("# partial true\n")


def _report(args, header, rows, partial=False, notes=()):
    """Write the stanza, one ``# note`` line per note, then the CSV."""
    with _open_out(args) as fh:
        _write_stanza(fh, args, partial=partial)
        for note in notes:
            fh.write(f"# {note}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _read_data_lines(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    except OSError as err:
        raise UsageError(str(err)) from None


# -- folner ------------------------------------------------------------------


def _cmd_folner_defect(args):
    group = get_group(args.group)
    seq = _family(group, args.family)
    rows = []
    for i in seq.indices(args.upto):
        F = seq.runs(i)  # read once: no index tuple is built and nothing decoded
        d = Fraction(max(generator_defect_counts(group, F)), len(F))
        rows.append((i, len(F), d.numerator, d.denominator, description_bits(group, F)))
    _report(args, ["i", "size", "max_defect_num", "max_defect_den", "description_bits"], rows)
    return 0


def _cmd_folner_tempered(args):
    group = get_group(args.group)
    seq = _family(group, args.family)
    rows = [(i, size, c.numerator, c.denominator)
            for i, size, c in temperedness_witnesses(seq, args.upto)]
    _report(args, ["i", "size", "tempered_num", "tempered_den"], rows)
    return 0


def _cmd_folner_modest_search(args):
    group = get_group(args.group)
    try:
        F = modest_search(group, args.i, cap=args.cap)
    except BudgetExceededError:
        _report(args, ["element"], [], partial=True)
        return 3
    rows = [[group.format_element(g)] for g in sorted(F)]
    _report(args, ["element"], rows, notes=[f"size {len(F)}"])
    return 0


# -- codec -------------------------------------------------------------------
# raw lines, not csv: csv would quote elements such as Z2:(1,0)


def _cmd_codec_encode(args):
    group = get_group(args.group)
    elements = frozenset(group.parse_element(line) for line in _read_data_lines(args.set_file))
    if not elements:
        raise UsageError(f"{args.set_file}: no elements")
    bits = encode_connected(group, elements)
    with _open_out(args) as fh:
        _write_stanza(fh, args)
        fh.write(bits + "\n")
    return 0


def _cmd_codec_decode(args):
    group = get_group(args.group)
    lines = _read_data_lines(args.bits_file)
    if len(lines) != 1:
        raise UsageError(f"{args.bits_file}: expected exactly one bit-string line")
    T = decode_connected(group, lines[0])
    with _open_out(args) as fh:
        _write_stanza(fh, args)
        for g in sorted(T):
            fh.write(group.format_element(g) + "\n")
    return 0


# -- tile --------------------------------------------------------------------


def _cmd_tile(args):
    group = get_group(args.group)
    seq = _family(group, args.family)
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse eps {args.eps!r}") from None
    tiling = plan(seq, eps, horizon=args.horizon)
    T = seq.subset(args.i)
    cov = cover(T, tiling, seq)
    rows = [
        ["center", scale, group.format_element(c), "", "", "", ""]
        for scale in tiling.scales
        for c in sorted(cov.scale_centers[scale])
    ]
    total = len(rows)
    checks = [(f.name, getattr(cov.report, f.name)) for f in fields(cov.report)]
    rows += [["assertion", "", "", name, str(chk.lhs), str(chk.rhs), chk.holds]
             for name, chk in checks]
    note = f"plan scales={','.join(map(str, tiling.scales))} threshold={tiling.threshold}"
    _report(args, ["kind", "scale", "element", "name", "lhs", "rhs", "holds"], rows,
            notes=[note])

    summary = sys.stdout if args.out else sys.stderr
    print(
        f"plan eps={eps} scales={tiling.scales} threshold={tiling.threshold}",
        file=summary,
    )
    print(
        f"cover of F_{args.i} (|T|={len(T)}): {total} tiles, {len(cov.covered)}/{len(T)} covered",
        file=summary,
    )
    verdict = " ".join(f"{name}={'ok' if chk.holds else 'FAIL'}" for name, chk in checks)
    print("assertions: " + verdict, file=summary)
    return 0


# -- entropy -----------------------------------------------------------------


def _cmd_entropy_sft(args):
    try:
        sft = load_sft(args.file)
    except OSError as err:
        raise UsageError(str(err)) from None
    seq = _family(sft.group, args.family)
    stop = None
    try:
        series = topological_entropy_estimate(sft, seq, args.upto, budget=args.budget)
    except BudgetExceededError as err:
        series, stop = err.partial, err
    rows = [[p.index, p.size, f"{p.bits:.6f}", f"{p.rate:.6f}"] for p in series]
    _report(args, ["i", "size", "bits", "rate"], rows, partial=stop is not None)
    if stop is None:
        return 0
    # on stderr, so that the report of a partial run keeps its pinned bytes
    print(f"# stopped on window {stop.index} after {stop.work} work units", file=sys.stderr)
    return 3


# -- brudno ------------------------------------------------------------------


def _cmd_brudno_run(args):
    group = get_group(args.group)
    seq = _family(group, args.family)
    measure = parse_measure(args.measure)
    # the chain runs along the line; other groups' indices are not its sites
    if isinstance(measure, MarkovMeasure) and group.name != "z":
        raise UsageError(f"a markov measure needs --group z, not {args.group!r}")
    names = sorted(ESTIMATORS) if args.estimator == "all" else [args.estimator]
    series = rate_series(MeasureSource(measure, args.seed), seq, names, args.upto)
    _report(args, ["estimator", "i", "size", "bits", "rate"],
            [(name, p.index, p.size, p.bits, f"{p.rate:.6f}")
             for name, points in series.items() for p in points])
    return 0


# -- repair demo ---------------------------------------------------------------


def _cmd_repair_demo(args):
    alphabet = binary_alphabet()
    n, flips = args.length, args.flips
    if not 0 <= flips <= n:
        raise UsageError("--flips must lie between 0 and --length")
    sites = np.arange(n, dtype=np.uint64)
    word = (site_uniforms(args.seed, sites) < 0.5).view(np.uint8)  # 1 where base has "1"
    base = (word + 48).tobytes().decode("ascii")
    # flip the k positions ranked lowest by an independent uniform, ties by position
    word[np.argsort(site_uniforms(derive(args.seed, 1), sites), kind="stable")[:flips]] ^= 1
    target = (word + 48).tobytes().decode("ascii")
    stream = repair_encode(alphabet, base, target)
    ok = repair_decode(alphabet, base, stream) == target
    plain_freq = freq_length(alphabet, target)
    plain_lz = lz78_length(alphabet, target)
    _report(args, ["length", "flips", "repair_bits", "freq_bits", "lz78_bits", "roundtrip_ok"],
            [[n, flips, len(stream), plain_freq, plain_lz, ok]])
    return 0


# -- config file ---------------------------------------------------------------


def _load_config(path):
    """Preset lines as ``--key=value`` flag tokens, each mapped to its key."""
    tokens = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                if not eq:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key = key.strip()
                tokens[f"--{key.replace('_', '-')}={value.strip()}"] = key
    except OSError as err:
        raise UsageError(str(err)) from None
    return tokens


class _ParserError(Exception):
    """A usage error of one (sub)parser, raised so that _parse can name its source."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParserError(self, message)


def _parse(parser, argv):
    """Parse argv with the ``--config`` preset spliced in as flags."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    preset = _load_config(path) if path else {}
    # after the subcommand words and before every explicit flag, so the
    # flags win and argparse types and requires the preset values too
    at = next((k for k, token in enumerate(argv) if token.startswith("-")), len(argv))
    try:
        args, extra = parser.parse_known_args(argv[:at] + list(preset) + argv[at:])
        # a key must name its option in full; argparse alone would take a prefix
        for token, key in preset.items():
            if token in extra or not hasattr(args, key.replace("-", "_")):
                raise UsageError(f"config key {key!r} does not match any option")
        if extra:  # the full tree reports these on its top parser
            _build_parser().error("unrecognized arguments: " + " ".join(extra))
    except _ParserError as err:
        failed, message = err.args
        # argparse stops at the first bad value, and preset tokens come first
        for token, key in preset.items():
            flag, _, value = token.partition("=")
            if message.startswith(f"argument {flag}: ") and f": {value!r}" in message:
                message = f"config file {path}, key {key!r}: {message}"
        argparse.ArgumentParser.error(failed, message)
    return args


# -- parser --------------------------------------------------------------------


def natural(text):
    """An int >= 0; argparse reports any other value as an invalid natural."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _add_common(p, *, group=True, family=False):
    if group:
        p.add_argument("--group", required=True, help="group id: z, z2, z3, ..., h3")
    if family:
        p.add_argument("--family", default="boxes", help="Folner family (boxes, dyadic)")
    p.add_argument("--out", help="report file (default: stdout)")
    p.add_argument("--config", help="key=value preset file; flags override")


_UPTO = ("--upto", dict(type=int, required=True, help="largest index"))
_GROUPS = {"folner": "Folner sequence reports", "codec": "connected-set codec",
           "entropy": "subshift entropy estimates",
           "brudno": "complexity rates of sampled configurations"}
# (words, help, _add_common flags, option specs, handler), in the order --help lists them
_COMMANDS = [
    (("folner", "defect"), "per-index max translation defect and description size",
     dict(family=True), [_UPTO], _cmd_folner_defect),
    (("folner", "tempered"), "prefix temperedness constants", dict(family=True), [_UPTO],
     _cmd_folner_tempered),
    (("folner", "modest-search"), "smallest modest set for an index", {},
     [("--i", dict(type=int, required=True, help="invariance demand")),
      ("--cap", dict(type=natural, default=1_000_000, help="enumeration budget"))],
     _cmd_folner_modest_search),
    (("codec", "encode"), "set file -> bit string", {}, [("--set-file", dict(
        required=True, help="one canonical element per line"))], _cmd_codec_encode),
    (("codec", "decode"), "bit string -> set file", {}, [("--bits-file", dict(
        required=True, help="file holding one 0/1 line"))], _cmd_codec_decode),
    (("tile",), "plan a quasi-tiling and cover a window", dict(family=True),
     [("--eps", dict(required=True, help="tiling parameter, e.g. 1/4")),
      ("--i", dict(type=int, required=True, help="window index to cover")),
      ("--horizon", dict(type=int, default=DEFAULT_HORIZON,
                         help="largest index the planner may use"))], _cmd_tile),
    (("entropy", "sft"), "normalized log pattern counts along a family",
     dict(group=False, family=True),
     [("--file", dict(required=True, help="SFT description file")), _UPTO,
      ("--budget", dict(type=natural, default=20_000_000,
                        help="pattern counting budget: (state, symbol) extensions per window"))],
     _cmd_entropy_sft),
    (("brudno", "run"), "rate series for a measure and estimator set", dict(family=True),
     [("--measure", dict(required=True, help="bernoulli:p0,p1,... or markov:[[...],...] "
                                             "(markov needs --group z)")),
      ("--estimator", dict(required=True, choices=sorted(ESTIMATORS) + ["all"])), _UPTO,
      ("--seed", dict(type=int, required=True, help="sampling seed"))], _cmd_brudno_run),
    (("repair-demo",), "edit coding of a corrupted word vs plain coders", dict(group=False),
     [("--length", dict(type=int, default=2000)),
      ("--flips", dict(type=int, default=40, help="sites to flip, 0..length")),
      ("--seed", dict(type=int, default=7))], _cmd_repair_demo),
]
_BY_WORDS = {entry[0]: entry for entry in _COMMANDS}


def _fill(p, words, common, options, func):
    """Add one command's flags to its parser, and the defaults its report echoes."""
    _add_common(p, **common)
    for flag, spec in options:
        p.add_argument(flag, **spec)
    p.set_defaults(func=func, cmd=words[0], **dict(zip(["subcmd"], words[1:])))
    return p


def _command_parser(words, _help, *rest):
    return _fill(_Parser(prog=" ".join(("amenlab",) + words)), words, *rest)


def _build_parser():
    """Every command under one top parser: for runs that name none, and its own errors."""
    parser = _Parser(prog="amenlab", description="Folner sequences, tilings, subshift entropy,"
                     " and complexity rates.")
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="cmd")
    groups = {}
    for words, text, *rest in _COMMANDS:
        if len(words) == 2 and words[0] not in groups:
            group = sub.add_parser(words[0], help=_GROUPS[words[0]])
            groups[words[0]] = group.add_subparsers(dest="subcmd")
        _fill(groups.get(words[0], sub).add_parser(words[-1], help=text), words, *rest)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argv's leading words name a command: build that command's parser alone
    entry = _BY_WORDS.get(tuple(argv[:2])) or _BY_WORDS.get(tuple(argv[:1]))
    parser = _command_parser(*entry) if entry else _build_parser()
    try:
        args = _parse(parser, argv[len(entry[0]):] if entry else argv)
        if args.func is None:
            parser.print_usage(sys.stderr)
            return 2
        return args.func(args)
    except SystemExit as exc:  # argparse: 0 after --help, 2 after a usage message
        return exc.code
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError, CoordinateRangeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
