"""Batch command line front end writing reproducible CSV reports.

Every run emits a stanza of ``#`` comment lines (version, timestamp,
config echo) followed by a CSV payload.  With a fixed seed the payload is
byte identical across runs; only the ``# generated`` line varies, so
diff-based golden tests simply drop it.  A ``key=value`` config file can
preset any long option; explicit flags win.

Exit codes: 0 success, 2 usage or input error, 3 budget exhausted (the
report written so far is flagged with ``# partial true``).
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .complexity import ESTIMATORS, freq_coder, lz78_estimate, repair_code, repair_decode
from .errors import BudgetExceededError
from .folner import (
    builtin_families,
    defect_report,
    description_bits,
    modest_search,
    temperedness_witnesses,
)
from .groups import get_group
from .quasitiling import cover, plan
from .rng import derive, site_uniform
from .setcodec import decode_connected, encode_connected
from .stochastic import MeasureSource, parse_measure
from .symbolic import binary_alphabet, cont, load_sft, topological_entropy_estimate


class UsageError(ValueError):
    """Bad flags, unresolvable ids, or malformed input files."""


# conversions applied to config-file values, keyed by option dest
_OPTION_TYPES = {
    "upto": int,
    "i": int,
    "seed": int,
    "budget": int,
    "cap": int,
    "horizon": int,
    "length": int,
    "flips": int,
}


def _require(args, *names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise UsageError(f"missing required option(s): {flags}")


def _family(group, name):
    families = builtin_families(group)
    if name not in families:
        raise UsageError(f"unknown family {name!r} (have {sorted(families)})")
    return families[name]


@contextmanager
def _open_out(args):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_stanza(fh, args, partial=False):
    fh.write(f"# amenlab {__version__}\n")
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    fh.write(f"# generated {stamp}\n")
    parts = []
    for key in sorted(vars(args)):
        # the report destination and preset path are not semantic config
        if key in ("func", "out", "config"):
            continue
        value = getattr(args, key)
        if value is None:
            continue
        parts.append(f"{key}={value}")
    fh.write("# config " + " ".join(parts) + "\n")
    if partial:
        fh.write("# partial true\n")


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _read_data_lines(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    except OSError as err:
        raise UsageError(str(err)) from None


# -- folner ------------------------------------------------------------------


def _cmd_folner_defect(args):
    _require(args, "group", "upto")
    group = get_group(args.group)
    seq = _family(group, args.family)
    rows = []
    for i in seq.indices(args.upto):
        F = seq.subset(i)
        d = defect_report(seq, i).max_defect
        rows.append((i, len(F), d.numerator, d.denominator, description_bits(group, F)))
    with _open_out(args) as fh:
        _write_stanza(fh, args)
        w = _writer(fh)
        w.writerow(["i", "size", "max_defect_num", "max_defect_den", "description_bits"])
        w.writerows(rows)
    return 0


def _cmd_folner_tempered(args):
    _require(args, "group", "upto")
    group = get_group(args.group)
    seq = _family(group, args.family)
    rows = [
        (i, len(seq.subset(i)), c.numerator, c.denominator)
        for i, c in temperedness_witnesses(seq, args.upto)
    ]
    with _open_out(args) as fh:
        _write_stanza(fh, args)
        w = _writer(fh)
        w.writerow(["i", "size", "tempered_num", "tempered_den"])
        w.writerows(rows)
    return 0


def _cmd_folner_modest_search(args):
    _require(args, "group", "i")
    group = get_group(args.group)
    try:
        F = modest_search(group, args.i, cap=args.cap)
    except BudgetExceededError:
        with _open_out(args) as fh:
            _write_stanza(fh, args, partial=True)
            _writer(fh).writerow(["element"])
        return 3
    with _open_out(args) as fh:
        _write_stanza(fh, args)
        fh.write(f"# size {len(F)}\n")
        w = _writer(fh)
        w.writerow(["element"])
        for g in sorted(F):
            w.writerow([group.format_element(g)])
    return 0


# -- codec -------------------------------------------------------------------


def _cmd_codec_encode(args):
    _require(args, "group", "set_file")
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
    _require(args, "group", "bits_file")
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
    _require(args, "group", "eps", "i")
    group = get_group(args.group)
    seq = _family(group, args.family)
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse eps {args.eps!r}") from None
    tiling = plan(seq, eps, horizon=args.horizon)
    T = seq.subset(args.i)
    cov = cover(T, tiling, seq)
    rep = cov.report

    with _open_out(args) as fh:
        _write_stanza(fh, args)
        fh.write(f"# plan scales={','.join(map(str, tiling.scales))} threshold={tiling.threshold}\n")
        w = _writer(fh)
        w.writerow(["kind", "scale", "element", "name", "lhs", "rhs", "holds"])
        total = 0
        for scale in tiling.scales:
            for c in sorted(cov.scale_centers[scale]):
                w.writerow(["center", scale, group.format_element(c), "", "", "", ""])
                total += 1
        checks = [
            ("tiles_inside", rep.tiles_inside),
            ("residue_small", rep.residue_small),
            ("mass_vs_covered", rep.mass_vs_covered),
            ("mass_vs_total", rep.mass_vs_total),
        ]
        for name, chk in checks:
            w.writerow(["assertion", "", "", name, str(chk.lhs), str(chk.rhs), chk.holds])

    summary = sys.stdout if getattr(args, "out", None) else sys.stderr
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
    _require(args, "file", "upto")
    try:
        sft = load_sft(args.file)
    except OSError as err:
        raise UsageError(str(err)) from None
    seq = _family(sft.group, args.family)
    partial = False
    try:
        series = topological_entropy_estimate(sft, seq, args.upto, budget=args.budget)
    except BudgetExceededError as err:
        series = err.partial
        partial = True
    with _open_out(args) as fh:
        _write_stanza(fh, args, partial=partial)
        w = _writer(fh)
        w.writerow(["i", "size", "bits", "rate"])
        for p in series.points:
            w.writerow([p.index, p.size, f"{p.bits:.6f}", f"{p.rate:.6f}"])
    return 3 if partial else 0


# -- brudno ------------------------------------------------------------------


def _cmd_brudno_run(args):
    _require(args, "group", "family", "measure", "estimator", "upto", "seed")
    group = get_group(args.group)
    seq = _family(group, args.family)
    measure = parse_measure(args.measure)
    if args.estimator == "all":
        names = sorted(ESTIMATORS)
    elif args.estimator in ESTIMATORS:
        names = [args.estimator]
    else:
        raise UsageError(
            f"unknown estimator {args.estimator!r} (have {sorted(ESTIMATORS) + ['all']})"
        )
    source = MeasureSource(measure, args.seed)
    # sample each window once and code its content word with every
    # estimator; rows are reported grouped by estimator
    rows = {name: [] for name in names}
    for i in seq.indices(args.upto):
        F = seq.subset(i)
        word = cont(source.window(F))
        for name in names:
            bits = ESTIMATORS[name](source.alphabet, word).bits
            rows[name].append((name, i, len(F), bits, f"{bits / len(F):.6f}"))
    with _open_out(args) as fh:
        _write_stanza(fh, args)
        w = _writer(fh)
        w.writerow(["estimator", "i", "size", "bits", "rate"])
        for name in names:
            w.writerows(rows[name])
    return 0


# -- repair demo ---------------------------------------------------------------


def _cmd_repair_demo(args):
    alphabet = binary_alphabet()
    n, flips = args.length, args.flips
    if flips > n:
        raise UsageError("--flips cannot exceed --length")
    base = "".join("1" if site_uniform(args.seed, k) < 0.5 else "0" for k in range(n))
    # flip the k positions ranked lowest by an independent uniform
    ranks = sorted(range(n), key=lambda k: site_uniform(derive(args.seed, 1), k))
    flipped = set(ranks[:flips])
    target = "".join(
        ("1" if base[k] == "0" else "0") if k in flipped else base[k] for k in range(n)
    )
    est = repair_code(alphabet, base, target)
    ok = repair_decode(alphabet, base, est.stream) == target
    plain_freq = freq_coder(alphabet, target).bits
    plain_lz = lz78_estimate(alphabet, target).bits
    with _open_out(args) as fh:
        _write_stanza(fh, args)
        w = _writer(fh)
        w.writerow(["length", "flips", "repair_bits", "freq_bits", "lz78_bits", "roundtrip_ok"])
        w.writerow([n, flips, est.bits, plain_freq, plain_lz, ok])
    return 0


# -- config file ---------------------------------------------------------------


def _load_config(path):
    cfg = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                if not eq:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                cfg[key.strip().replace("-", "_")] = value.strip()
    except OSError as err:
        raise UsageError(str(err)) from None
    return cfg


def _apply_config(args, argv, cfg):
    given = set()
    for token in argv:
        if token.startswith("--"):
            given.add(token[2:].split("=", 1)[0].replace("-", "_"))
    for key, raw in cfg.items():
        if key in given:
            continue
        if not hasattr(args, key):
            raise UsageError(f"config key {key!r} does not match any option")
        conv = _OPTION_TYPES.get(key, str)
        try:
            setattr(args, key, conv(raw))
        except ValueError:
            raise UsageError(f"config value {key}={raw!r} is not a valid {conv.__name__}") from None


# -- parser --------------------------------------------------------------------


def _add_common(p, *, family=False):
    p.add_argument("--group", help="group id: z, z2, z3, ..., h3")
    if family:
        p.add_argument("--family", default="boxes", help="Folner family (boxes, dyadic)")
    p.add_argument("--out", help="report file (default: stdout)")
    p.add_argument("--config", help="key=value preset file; flags override")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="amenlab",
        description="Folner sequences, tilings, subshift entropy, and complexity rates.",
    )
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="cmd")

    folner = sub.add_parser("folner", help="Folner sequence reports")
    fsub = folner.add_subparsers(dest="subcmd")
    p = fsub.add_parser("defect", help="per-index max translation defect and description size")
    _add_common(p, family=True)
    p.add_argument("--upto", type=int, help="largest index")
    p.set_defaults(func=_cmd_folner_defect)
    p = fsub.add_parser("tempered", help="prefix temperedness constants")
    _add_common(p, family=True)
    p.add_argument("--upto", type=int, help="largest index")
    p.set_defaults(func=_cmd_folner_tempered)
    p = fsub.add_parser("modest-search", help="smallest modest set for an index")
    _add_common(p)
    p.add_argument("--i", type=int, help="invariance demand")
    p.add_argument("--cap", type=int, default=1_000_000, help="enumeration budget")
    p.set_defaults(func=_cmd_folner_modest_search)

    codec = sub.add_parser("codec", help="connected-set codec")
    csub = codec.add_subparsers(dest="subcmd")
    p = csub.add_parser("encode", help="set file -> bit string")
    _add_common(p)
    p.add_argument("--set-file", dest="set_file", help="one canonical element per line")
    p.set_defaults(func=_cmd_codec_encode)
    p = csub.add_parser("decode", help="bit string -> set file")
    _add_common(p)
    p.add_argument("--bits-file", dest="bits_file", help="file holding one 0/1 line")
    p.set_defaults(func=_cmd_codec_decode)

    p = sub.add_parser("tile", help="plan a quasi-tiling and cover a window")
    _add_common(p, family=True)
    p.add_argument("--eps", help="tiling parameter, e.g. 1/4")
    p.add_argument("--i", type=int, help="window index to cover")
    p.add_argument("--horizon", type=int, default=64, help="largest index the planner may use")
    p.set_defaults(func=_cmd_tile)

    entropy = sub.add_parser("entropy", help="subshift entropy estimates")
    esub = entropy.add_subparsers(dest="subcmd")
    p = esub.add_parser("sft", help="normalized log pattern counts along a family")
    p.add_argument("--file", help="SFT description file")
    p.add_argument("--family", default="boxes")
    p.add_argument("--upto", type=int)
    p.add_argument("--budget", type=int, default=20_000_000,
                   help="pattern counting budget: (state, symbol) extensions per window")
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_entropy_sft)

    brudno = sub.add_parser("brudno", help="complexity rates of sampled configurations")
    bsub = brudno.add_subparsers(dest="subcmd")
    p = bsub.add_parser("run", help="rate series for a measure and estimator set")
    _add_common(p, family=True)
    p.add_argument("--measure", help="bernoulli:p0,p1,... or markov:[[...],...]")
    p.add_argument("--estimator", help="freq, lz78, or all")
    p.add_argument("--upto", type=int)
    p.add_argument("--seed", type=int, help="sampling seed")
    p.set_defaults(func=_cmd_brudno_run)

    p = sub.add_parser("repair-demo", help="edit coding of a corrupted word vs plain coders")
    p.add_argument("--length", type=int, default=2000)
    p.add_argument("--flips", type=int, default=40)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_repair_demo)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    if args.func is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if getattr(args, "config", None):
            _apply_config(args, argv, _load_config(args.config))
        return args.func(args)
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
