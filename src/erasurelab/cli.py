"""Command-line front end.

Subcommands:

  construct   build an LDPC code and write it in the code file format
  simulate    Monte Carlo sweep for an LDPC or fixed-rate Raptor code
              (BEC or fixed-overhead)
  bounds      Singleton / Berlekamp bounds over an epsilon grid
  thresholds  IT threshold, ML-threshold area bound and Shannon limit
              for an unstructured ensemble
  mindist     exhaustive minimum distance of a stored code

Options may come from a flat key=value config file (--config); explicit
command-line flags override config entries. Every CSV-producing run echoes
every option of its command that is set, resolved, as '#' comment lines;
each key but 'command' and 'lt_seed' is a config key, so the header read
back as a config file replays the run.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import analysis, ldpc, raptor, sim


def _parse_config(path):
    """The key=value lines of a config file, '-' in a key read as '_'; a key
    given twice, in either spelling, is refused."""
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in cfg:
                raise ValueError(f"config key {key!r} given twice")
            cfg[key] = val.strip()
    return cfg


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_defaults(sub, path):
    """The config file's values as defaults for subcommand parser ``sub``.
    Values stay text for argparse to convert as it does string defaults;
    switches are read as booleans here."""
    actions = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    out = {}
    for key, val in _parse_config(path).items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(action.default, bool):
            if val.lower() not in _BOOLEANS:
                raise ValueError(f"config key {key!r}: {val!r} is not a boolean "
                                 f"(1/0, true/false or yes/no)")
            val = _BOOLEANS[val.lower()]
        elif action.choices is not None and val not in action.choices:
            raise ValueError(f"config key {key!r}: {val!r} is not one of {list(action.choices)}")
        out[key] = val
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # subcommand parsers report under the program name too
        self.print_usage(sys.stderr)
        self.exit(2, f"erasurelab: error: {message}\n")


# the most points a range may hold, checked before the range is built
_MAX_GRID = 10**6


def _float_range(text):
    """'a:b:step' grid from a up to b, b included when a whole number of
    steps lands on it, or a single value / comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("expected start:stop:step")
        a, b, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (a, b, step))):
            raise argparse.ArgumentTypeError(f"want a finite start, stop and step, got {text!r}")
        if step <= 0 or b < a:
            raise argparse.ArgumentTypeError(f"want start <= stop and step > 0, got {text!r}")
        # the whole steps that fit (int floors a value >= 0); the 1e-9 keeps a
        # stop that float rounding puts a hair short, as in 0.42:0.48:0.02
        steps = (b - a) / step + 1e-9
        if steps >= _MAX_GRID:  # inf too, where b - a overflows
            raise argparse.ArgumentTypeError(f"{text!r} has more than {_MAX_GRID} points")
        return [a + i * step for i in range(int(steps) + 1)]
    return [float(p) for p in text.split(",")]


def _int_range(text):
    """'a:b' inclusive, or a comma list."""
    if ":" in text:
        a, b = (int(p) for p in text.split(":"))
        if b < a:
            raise argparse.ArgumentTypeError(f"want start <= stop, got {text!r}")
        if b - a >= _MAX_GRID:
            raise argparse.ArgumentTypeError(f"{text!r} has more than {_MAX_GRID} points")
        return list(range(a, b + 1))
    return [int(p) for p in text.split(",")]


def _positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"want an integer >= 1, got {n}")
    return n


def _pair(text):
    a, b = text.split(",")
    return int(a), int(b)


def _header_text(v):
    """A float as ``:g`` where that parses back to it, else as ``repr``, so
    that a grid value such as 0.45999999999999996 survives the header."""
    if isinstance(v, float):
        short = f"{v:g}"
        return short if float(short) == v else repr(v)
    return str(v)


def _echo_header(args, parser):
    """Every option of the command's ``parser`` that is set, in declaration
    order, so that the header is the run's config file (less ``command``)."""
    hdr = {"command": args.command}
    for action in parser._actions:
        val = getattr(args, action.dest, None)  # None for help, which has no value
        if action.dest in ("config", "out") or val is None or val is False:
            continue
        if val is True:  # a switch, echoed only when set
            val = 1
        if isinstance(val, (list, tuple)):
            val = ",".join(map(_header_text, val))
        hdr[action.dest] = val
    return hdr


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the code selectors and the code flags each one takes
_CODE_FLAGS = {"code": (), "regular": ("n",), "geira": ("taps", "wc"), "raptor": ()}
_GEIRA_DEFAULTS = {"taps": [0, 1], "wc": 3}


def _build_code(args, parser):
    kinds = [key for key in _CODE_FLAGS if hasattr(args, key)]  # construct has no --raptor
    given = [key for key in kinds if getattr(args, key)]
    if len(given) != 1:
        *rest, last = (f"--{key}" for key in kinds)
        not_these = f", not {' and '.join('--' + key for key in given)}" if given else ""
        parser.error(f"give one of {', '.join(rest)} or {last}{not_these}")
    kind = given[0]
    stray = [f"--{key}" for key in ("n", "taps", "wc")
             if getattr(args, key) is not None and key not in _CODE_FLAGS[kind]]
    if stray:
        parser.error(f"--{kind} does not take {' or '.join(stray)}")
    if kind == "code":
        return ldpc.load_code(args.code)
    if kind == "raptor":
        k, n = args.raptor
        return raptor.RaptorCode.build(k, n, seed=args.seed)
    if kind == "regular":
        if args.n is None:
            parser.error("--regular needs --n")
        dv, dc = args.regular
        return ldpc.sample_regular(dv, dc, args.n, seed=args.seed)
    for key, default in _GEIRA_DEFAULTS.items():  # resolved, so the header echoes them
        if getattr(args, key) is None:
            setattr(args, key, default)
    k, n = args.geira
    return ldpc.build_geira(ldpc.GeiraSpec(k=k, n=n, taps=frozenset(args.taps),
                                           wc=args.wc, seed=args.seed))


def _cmd_construct(args, parser):
    code = _build_code(args, parser)
    _emit(ldpc.code_to_text(code), args.out)
    return 0


def _cmd_simulate(args, parser):
    if (args.eps is None) == (args.delta is None):
        parser.error("give one of --eps or --delta")
    if args.raptor and args.random_codeword:  # a Raptor sweep always encodes random inputs
        parser.error("--raptor does not take --random-codeword")
    kind, sweep = ("bec", args.eps) if args.eps is not None else ("overhead", args.delta)
    code = _build_code(args, parser)
    plan = sim.SimPlan(code=code, decoder=args.decoder, channel_kind=kind,
                       sweep=sweep, target_errors=args.target_errors,
                       max_trials=args.max_trials, seed=args.seed,
                       zero_codeword=not args.random_codeword,
                       workers=args.workers)
    records = sim.run_sweep(plan)
    hdr = _echo_header(args, parser)
    if args.raptor:  # no config key: the build finds it from k, n and seed
        hdr["lt_seed"] = code.params.lt_seed
    _emit(sim.records_to_csv(records, hdr), args.out)
    return 0


def _cmd_bounds(args, parser):
    if None in (args.n, args.k, args.eps):
        parser.error("give --n, --k and --eps")
    if (args.dmin is None) != (args.amin is None):
        parser.error("give --dmin and --amin together")
    hdr = _echo_header(args, parser)
    tail = None if args.dmin is None else analysis.WeightSpectrumTail(args.dmin, args.amin)
    columns = "epsilon,singleton,berlekamp" + ("" if tail is None else ",floor")
    rows = []
    for eps in args.eps:
        sb = analysis.singleton_bound(args.n, args.k, eps)
        bb = analysis.berlekamp_bound(args.n, args.k, eps)
        row = f"{eps:g},{sb:.8g},{bb:.8g}"
        if tail is not None:
            row += f",{analysis.error_floor_estimate(tail, eps):.8g}"
        rows.append(row)
    _emit(sim.format_csv(hdr, columns, rows), args.out)
    return 0


def _cmd_thresholds(args, parser):
    if not args.regular:
        parser.error("give --regular dv,dc")
    dv, dc = args.regular
    rep = analysis.threshold_report(analysis.DegreeDistribution.regular(dv, dc))
    row = f"({dv}:{dc}),{rep.eps_it:.6f},{rep.eps_ml_bound:.6f},{rep.eps_sh:.6f}"
    _emit(sim.format_csv(_echo_header(args, parser), "ensemble,eps_it,eps_ml_bound,eps_sh",
                         [row]), args.out)
    return 0


def _cmd_mindist(args, parser):
    if not args.code:
        parser.error("give --code")
    code = ldpc.load_code(args.code)
    tail = analysis.exhaustive_min_distance(code)
    _emit(sim.format_csv(_echo_header(args, parser), "d_min,a_min",
                         [f"{tail.d_min},{tail.a_min}"]), args.out)
    return 0


def _make_parser():
    parser = _Parser(prog="erasurelab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices

    def command(name, run, help):
        sp = subs.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--out", help="output path (default: stdout)")
        return sp

    def code_flags(sp):
        # first: a construct or simulate header echoes it after the command
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--code", help="path to a stored code file")
        sp.add_argument("--regular", type=_pair, metavar="DV,DC")
        sp.add_argument("--geira", type=_pair, metavar="K,N")
        taps, wc = ",".join(map(str, _GEIRA_DEFAULTS["taps"])), _GEIRA_DEFAULTS["wc"]
        sp.add_argument("--taps", type=_int_range, help=f"GeIRA accumulator taps (default {taps})")
        sp.add_argument("--wc", type=int, help=f"GeIRA column weight (default {wc})")
        sp.add_argument("--n", type=int, help="block length of a --regular code")

    def sweep_flags(sp):
        sp.add_argument("--target-errors", type=_positive, default=100)
        sp.add_argument("--max-trials", type=_positive, default=100000)
        sp.add_argument("--workers", type=_positive, default=1)

    sp = command("construct", _cmd_construct, "build a code and emit its file")
    code_flags(sp)

    # the header echoes a command's options in the order declared here
    sp = command("simulate", _cmd_simulate, "Monte Carlo sweep for an LDPC or Raptor code")
    code_flags(sp)
    sp.add_argument("--raptor", type=_pair, metavar="K,N",
                    help="a fixed-rate Raptor code (ML decoding, random inputs)")
    sp.add_argument("--decoder", choices=("it", "ml", "hybrid"), default="ml")
    sp.add_argument("--eps", type=_float_range, metavar="A:B:STEP")
    sp.add_argument("--delta", type=_int_range, metavar="A:B")
    sweep_flags(sp)
    sp.add_argument("--random-codeword", action="store_true",
                    help="encode random inputs instead of the all-zero word")

    sp = command("bounds", _cmd_bounds, "Singleton/Berlekamp bound grid")
    sp.add_argument("--n", type=_positive)
    sp.add_argument("--k", type=int)
    sp.add_argument("--eps", type=_float_range, metavar="A:B:STEP")
    sp.add_argument("--dmin", type=_positive, help="floor estimate: minimum distance")
    sp.add_argument("--amin", type=_positive, help="floor estimate: multiplicity")

    sp = command("thresholds", _cmd_thresholds, "ensemble threshold report")
    sp.add_argument("--regular", type=_pair, metavar="DV,DC")

    sp = command("mindist", _cmd_mindist, "exhaustive minimum distance")
    sp.add_argument("--code", help="path to a stored code file")
    return parser


def main(argv=None):
    parser = _make_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        sub = parser.commands[args.command]
        if args.config:
            # config values become defaults, so the flags given still win
            sub.set_defaults(**_config_defaults(sub, args.config))
            args, extra = parser.parse_known_args(argv)
        if extra:  # the command's leftovers, reported under its own usage
            sub.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.run(args, sub)  # usage errors show the command's usage
    except SystemExit as exc:
        return exc.code or 0
    except (ValueError, OSError) as exc:
        # bad input (a code file, a config file, values no flag type checks)
        sys.stderr.write(f"erasurelab: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
