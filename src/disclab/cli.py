"""Command-line front end.

Subcommands mirror the library: construct {stacked, hadamard, w},
wdisc {exact, heur}, odisc {exact, color}, certify {wdisc-lb, multicolor-lb,
hadamard-lemma}, fd {gen, check, minc, allocate}, and experiment (CSV sweep).

Exit codes: 0 success/pass, 1 certification failure, 2 usage or format
error, 3 budget exceeded. Stdout carries one JSON object (CSV for
experiment); diagnostics go to stderr. All rationals travel as "a/b"
strings; no floats appear unless --float-view asks for a convenience column.
Output bytes depend only on argv and input files: randomness is pinned by
--seed and every search runs sequentially. --threads is still accepted where
it once chose a worker count, and has no effect. Every exact search has one
cap: it is refused (exit 3) when its unpruned tree has more than 2^cap
leaves, 2^m selections of m columns or k^m colorings and allocations. --cap
sets it, else the DISCLAB_CAP environment variable, else DEFAULT_CAP (24);
a negative cap is a usage error (exit 2).

`build_parser`'s tree is the only grammar. `run` looks up the leaf parser
its command words name (`fd minc`, `experiment`). When the rest of argv is
in the canonical form, each token one of the leaf's option strings spelled
out and each value one that does not start with "-" and that the option's
type and choices accept, `run` reads it against the leaf's actions without
calling argparse. Any other argv is parsed by the whole tree, so every
message and exit code is the tree's own.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, DisclabError, InputError, VerificationError
from .fairdiv import (
    Allocation,
    FairDivInstance,
    FairnessNotion,
    allocate_prop_via_odisc,
    brute_force_min_c,
    check_fairness,
    gen_cd_instance,
    gen_ef_lb_instance,
    gen_prop_lb_instance,
)
from .lower_bounds import (
    build_stacked,
    certify_multicolor_lb,
    certify_wdisc_lb,
    check_hadamard_lemma,
    check_multicolor_k,
    lb_value,
    stacked_shape,
)
from .matrices import RatMatrix, check_cells, hadamard_sylvester, lift_w
from .rational import format_rational, parse_rational
from .recursive_coloring import odisc_color, reference_bound
from .solvers import (
    DEFAULT_CAP,
    OracleConfig,
    check_search,
    eval_asymmetric,
    odisc_exact,
    wdisc_exact,
    wdisc_heuristic,
)

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CAP_HELP = f"log2 of the leaves an exact search may have (default {DEFAULT_CAP}, or DISCLAB_CAP)"


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    stdout: str = ""
    stderr: str = ""


def _cap(args) -> int:
    """log2 of the leaves an exact search may have: --cap when given, else
    DISCLAB_CAP, else the default. The environment is read per call, not at
    parse time: the parser is shared by every run."""
    if args.cap is not None:
        return args.cap
    raw = os.environ.get("DISCLAB_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"DISCLAB_CAP must be an integer, got {raw!r}") from exc


def _dump(payload) -> str:
    return json.dumps(payload) + "\n"


def _load_json(path: str):
    """The JSON value in the file at `path`, read as text would read it.

    The bytes are decoded once, and CRLF and CR line ends read as LF as in
    a text-mode read, so a JSON error names the same line, column and
    character."""
    try:
        with open(path, "rb", buffering=0) as handle:  # one read of the whole file
            text = handle.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests JSON too deeply to read") from exc
    except UnicodeDecodeError as exc:  # a ValueError too, so caught before the digit limit
        raise InputError(f"{path} is not UTF-8 text") from exc
    except ValueError as exc:  # a number past Python's integer string-conversion limit
        raise InputError(f"{path} holds a number with more than {sys.get_int_max_str_digits()} digits") from exc


def _write_out(path: str, text: str):
    """Also write `text` to `path` when one is given."""
    if not path:
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load_matrix(path: str) -> RatMatrix:
    return RatMatrix.from_json_dict(_load_json(path))


def _oracle_config(args) -> OracleConfig:
    return OracleConfig(kind=args.oracle, budget=args.iters, seed=args.seed, cap=_cap(args))


def _add_oracle_flags(parser, default_kind="exact", kinds=("exact", "greedy", "local-search")):
    parser.add_argument("--oracle", choices=kinds, default=default_kind)
    parser.add_argument("--iters", type=int, default=2000, help="heuristic budget: one unit per move and per restart")
    parser.add_argument("--seed", type=int, default=0)


def _add_threads_flag(parser):
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored: searches run sequentially")


def _power_of_two(value: str) -> int:
    n = int(value)
    if n < 1 or n & (n - 1) != 0:
        raise argparse.ArgumentTypeError(f"{value} is not a power of two")
    return n


def _int_list(value: str):
    try:
        return [int(v) for v in value.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {value!r}") from exc


def _rat_list(value: str):
    return [parse_rational(v) for v in value.split(",") if v.strip()]


_printed = threading.local()  # .messages: what _Parser printed in this thread's current `run`


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps what it prints for `run`.

    argparse writes a usage error or help text itself, then exits. Each
    message it writes goes instead, with whether it was meant for stdout, to
    the calling thread's list, which `run` drains into its outcome. The
    subparsers are of this class too. A call that parses cleanly prints
    nothing and pays nothing."""

    def _print_message(self, message, file=None):
        if message:
            _printed.__dict__.setdefault("messages", []).append((file is sys.stdout, message))


def _add_leaf(leaves, commands, *words, **kwargs):
    """Add the parser of the command named by `words` to `commands` (its
    group's subparsers, or the top level's) and file it in `leaves` under
    those words, with the attributes the tree's parse sets from them: the
    first word to `command`, a second to the group's own dest."""
    parser = commands.add_parser(words[-1], **kwargs)
    leaves[words] = parser, dict(zip(("command", commands.dest), words))
    return parser


def build_parser(leaves=None) -> argparse.ArgumentParser:
    """The disclab parser; what it prints reaches the outcome of `run`.

    `leaves`, when given, is filled with every leaf of the tree, the parser
    of one runnable command: `leaves[("fd", "minc")]` is that parser and
    {"command": "fd", "what": "minc"}."""
    if leaves is None:
        leaves = {}
    parser = _Parser(prog="disclab")
    top = parser.add_subparsers(dest="command", required=True)

    construct = top.add_parser("construct", help="emit matrices as JSON")
    csub = construct.add_subparsers(dest="what", required=True)
    stacked = _add_leaf(leaves, csub, "construct", "stacked",
                        help="t copies of W side by side, t = floor(1/(2p))")
    stacked.add_argument("--p", type=parse_rational, required=True)
    stacked.add_argument("--n", type=_power_of_two, required=True)
    stacked.add_argument("--out", default="")
    hadamard = _add_leaf(leaves, csub, "construct", "hadamard", help="Sylvester sign matrix of the given order")
    hadamard.add_argument("--n", type=_power_of_two, required=True)
    hadamard.add_argument("--out", default="")
    wmat = _add_leaf(leaves, csub, "construct", "w", help="(1 + H)/2 for the Sylvester H of the given order")
    wmat.add_argument("--n", type=_power_of_two, required=True)
    wmat.add_argument("--out", default="")

    wdisc = top.add_parser("wdisc", help="weighted discrepancy solvers")
    wsub = wdisc.add_subparsers(dest="how", required=True)
    wexact = _add_leaf(leaves, wsub, "wdisc", "exact")
    wexact.add_argument("--matrix", required=True)
    wexact.add_argument("--p", type=parse_rational, required=True)
    wexact.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    wheur = _add_leaf(leaves, wsub, "wdisc", "heur")
    wheur.add_argument("--matrix", required=True)
    wheur.add_argument("--p", type=parse_rational, required=True)
    _add_oracle_flags(wheur, default_kind="local-search", kinds=("greedy", "local-search"))

    odisc = top.add_parser("odisc", help="multicolor / asymmetric discrepancy")
    osub = odisc.add_subparsers(dest="how", required=True)
    oexact = _add_leaf(leaves, osub, "odisc", "exact")
    oexact.add_argument("--matrix", action="append", required=True,
                        help="repeat for one block per color")
    oexact.add_argument("--k", type=int, default=None,
                        help="with a single --matrix: use k identical copies")
    oexact.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    _add_threads_flag(oexact)
    ocolor = _add_leaf(leaves, osub, "odisc", "color")
    ocolor.add_argument("--matrix", action="append", required=True)
    ocolor.add_argument("--k", type=int, default=None)
    ocolor.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    _add_oracle_flags(ocolor)

    certify = top.add_parser("certify", help="exact lower-bound certification")
    certsub = certify.add_subparsers(dest="what", required=True)
    cwd = _add_leaf(leaves, certsub, "certify", "wdisc-lb")
    cwd.add_argument("--p", type=parse_rational, required=True)
    cwd.add_argument("--n", type=_power_of_two, required=True)
    cwd.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    cmc = _add_leaf(leaves, certsub, "certify", "multicolor-lb")
    cmc.add_argument("--k", type=int, required=True)
    cmc.add_argument("--n", type=_power_of_two, required=True)
    cmc.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    _add_threads_flag(cmc)
    clem = _add_leaf(leaves, certsub, "certify", "hadamard-lemma")
    clem.add_argument("--n", type=_power_of_two, required=True)
    clem.add_argument("--trials", type=int, default=1000)
    clem.add_argument("--seed", type=int, default=0)

    fd = top.add_parser("fd", help="group fair division")
    fdsub = fd.add_subparsers(dest="what", required=True)
    fgen = _add_leaf(leaves, fdsub, "fd", "gen")
    fgen.add_argument("--kind", choices=["prop", "ef", "cd"], required=True)
    fgen.add_argument("--matrix", required=True)
    fgen.add_argument("--k", type=int, required=True)
    fgen.add_argument("--istar", type=int, default=None,
                      help="last group that embeds the matrix, prop only (default 1)")
    fgen.add_argument("--sizes", type=_int_list, default=None,
                      help="comma-separated group sizes, descending")
    fgen.add_argument("--out", default="")
    fcheck = _add_leaf(leaves, fdsub, "fd", "check")
    fcheck.add_argument("--instance", required=True)
    fcheck.add_argument("--allocation", required=True)
    fcheck.add_argument("--notion", choices=["ef", "prop", "cd"], required=True)
    fcheck.add_argument("--c", type=int, required=True)
    fminc = _add_leaf(leaves, fdsub, "fd", "minc")
    fminc.add_argument("--instance", required=True)
    fminc.add_argument("--notion", choices=["ef", "prop", "cd"], required=True)
    fminc.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    _add_threads_flag(fminc)
    falloc = _add_leaf(leaves, fdsub, "fd", "allocate")
    falloc.add_argument("--instance", required=True)
    _add_oracle_flags(falloc)
    falloc.add_argument("--cap", type=int, default=None, help=CAP_HELP)

    experiment = _add_leaf(leaves, top, "experiment", help="CSV sweep over (n, p, k, solver)")
    experiment.add_argument("--n", type=_int_list, default=[])
    experiment.add_argument("--p", type=_rat_list, default=[])
    experiment.add_argument("--k", type=_int_list, default=[])
    experiment.add_argument("--solver", default="exact",
                            help="comma list of exact, greedy, local-search")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--iters", type=int, default=2000)
    experiment.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    _add_threads_flag(experiment)
    experiment.add_argument("--csv", default="", help="also write the CSV here")
    experiment.add_argument("--timings", action="store_true",
                            help="append a wall_ms column (breaks byte determinism)")
    experiment.add_argument("--float-view", action="store_true", dest="float_view",
                            help="append a decimal value column")

    return parser


@functools.cache
def _parser() -> tuple:
    """The parser `run` uses and its leaves, built once per process. Parsing
    leaves them unchanged, and no command mutates its `args` or their
    defaults."""
    leaves = {}
    return build_parser(leaves), leaves


@functools.cache
def _options(words):
    """What `_match` needs of the leaf that `words` name, built once per leaf
    from its actions: each option string of a store or append action that
    takes one value, or of a store_const flag such as store_true, mapped to
    (action, whether it appends, type, choices); the attributes a parse
    starts from, the tree's and then the defaults argparse sets; and the
    required actions. None for a leaf with a positional or with a string
    default that has a type, which argparse would convert on every parse."""
    leaf, attributes = _parser()[1][words]
    options, start, required = {}, dict(attributes), set()
    for action in leaf._actions:
        if not action.option_strings or (isinstance(action.default, str) and action.type is not None):
            return None
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            start.setdefault(action.dest, action.default)
        if action.required:
            required.add(action)
        if isinstance(action, argparse._StoreConstAction):
            entry = action, None, None, None
        elif type(action) in (argparse._StoreAction, argparse._AppendAction) and action.nargs is None:
            entry = action, isinstance(action, argparse._AppendAction), action.type, action.choices
        else:
            continue
        options.update(dict.fromkeys(action.option_strings, entry))
    return options, start, required


def _match(words, tokens):
    """`tokens` parsed as the leaf that `words` name parses them, or None
    unless they are in the canonical form: each an option string of the
    leaf's own, spelled out, followed by one value that does not start with
    "-" unless the option is a flag; each value accepted by its type and
    choices; every required option given. A None leaves the parse to
    argparse."""
    table = _options(words)
    if table is None:
        return None
    options, start, required = table
    values = dict(start)
    seen = set()
    tokens = iter(tokens)
    for token in tokens:
        entry = options.get(token)
        if entry is None:
            return None
        action, append, convert, choices = entry
        seen.add(action)
        if append is None:  # a flag
            values[action.dest] = action.const
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if convert is not None:
            try:
                value = convert(value)
            except Exception:  # argparse reports it, or raises it, itself
                return None
        if choices is not None and value not in choices:
            return None
        values[action.dest] = [*(values[action.dest] or ()), value] if append else value
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def _parse(argv) -> argparse.Namespace:
    """argv parsed as `build_parser`'s tree parses it.

    The command words, argv's first one or two, name a leaf, and the tree
    hands that leaf exactly the rest of argv, starting from the attributes
    it sets from those words; a leaf that reads it all leaves nothing for
    the levels above to check. `_match` reads the rest when it is in the
    canonical form, with no argparse call. Any other argv (no leaf named,
    or a rest `_match` refuses) is parsed by the whole tree, so every
    message and exit code is the tree's own.
    """
    parser, leaves = _parser()
    words = tuple(argv[:2]) if tuple(argv[:2]) in leaves else tuple(argv[:1])
    if words in leaves:
        args = _match(words, argv[len(words):])
        if args is not None:
            return args
    return parser.parse_args(argv)


def _cmd_construct(args) -> CommandOutcome:
    if args.what == "stacked":
        construction = build_stacked(args.p, args.n)
        payload = construction.matrix.to_json_dict()
    elif args.what == "hadamard":
        payload = hadamard_sylvester(args.n.bit_length() - 1).to_json_dict()
    else:
        payload = lift_w(hadamard_sylvester(args.n.bit_length() - 1)).to_json_dict()
    text = _dump(payload)
    _write_out(args.out, text)
    return CommandOutcome(EXIT_OK, text)


def _cmd_wdisc(args) -> CommandOutcome:
    matrix = _load_matrix(args.matrix)
    if args.how == "exact":
        result = wdisc_exact(matrix, args.p, _cap(args))
    else:
        result = wdisc_heuristic(matrix, args.p, OracleConfig(kind=args.oracle, budget=args.iters, seed=args.seed))
    return CommandOutcome(EXIT_OK, _dump(result.to_json_dict()))


def _blocks_from_args(args):
    if args.k is not None and args.k < 1:
        raise InputError("--k must be >= 1")
    matrices = [_load_matrix(path) for path in args.matrix]
    if args.k is not None and len(matrices) == 1:
        # Both searches stack the k copies: refuse before they are listed.
        if args.how == "exact":
            check_search(args.k, matrices[0].cols, _cap(args))
        check_cells(matrices[0].rows * matrices[0].cols * args.k)
        return matrices * args.k
    if args.k is not None and args.k != len(matrices):
        raise InputError("--k disagrees with the number of --matrix blocks")
    return matrices


def _cmd_odisc(args) -> CommandOutcome:
    blocks = _blocks_from_args(args)
    if args.how == "exact":
        result = odisc_exact(blocks, _cap(args))
        return CommandOutcome(EXIT_OK, _dump(result.to_json_dict()))
    coloring, certificate = odisc_color(blocks, _oracle_config(args))
    payload = {
        "coloring": list(coloring),
        "value": format_rational(eval_asymmetric(blocks, coloring)),
        "bounds": [format_rational(b) for b in certificate.bounds],
        "certificate": certificate.to_json_dict(),
    }
    return CommandOutcome(EXIT_OK, _dump(payload))


def _cmd_certify(args) -> CommandOutcome:
    if args.what != "hadamard-lemma":
        if args.what == "wdisc-lb":
            report = certify_wdisc_lb(args.p, args.n, _cap(args))
        else:
            report = certify_multicolor_lb(args.k, args.n, _cap(args))
        return CommandOutcome(EXIT_OK if report.passed else EXIT_CERT_FAIL, _dump(report.to_json_dict()))
    # hadamard-lemma: seeded random vectors plus all unit vectors.
    if args.trials < 1:
        raise InputError("--trials must be >= 1")
    w = lift_w(hadamard_sylvester(args.n.bit_length() - 1))
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.trials):
        z = [rng.randint(-8, 8) for _ in range(args.n)]
        if not check_hadamard_lemma(w, z)[2]:
            failures += 1
    for i in range(args.n):
        unit = [0] * args.n
        unit[i] = 1
        if not check_hadamard_lemma(w, unit)[2]:
            failures += 1
    payload = {"n": args.n, "trials": args.trials, "failures": failures, "pass": failures == 0}
    return CommandOutcome(EXIT_OK if failures == 0 else EXIT_CERT_FAIL, _dump(payload))


def _cmd_fd(args) -> CommandOutcome:
    if args.what == "gen":
        if args.istar is not None and args.kind != "prop":
            raise InputError(f"--istar applies only to --kind prop, not {args.kind}")
        if args.sizes is not None and args.kind == "cd":
            raise InputError("--sizes does not apply to --kind cd")
        matrix = _load_matrix(args.matrix)
        if args.kind == "cd":
            instance = gen_cd_instance(matrix, args.k)
        elif args.sizes is None:
            raise InputError("--sizes is required for prop/ef generation")
        elif args.kind == "prop":
            istar = 1 if args.istar is None else args.istar
            instance = gen_prop_lb_instance(matrix, args.k, istar, args.sizes)
        else:
            instance = gen_ef_lb_instance(matrix, args.k, args.sizes)
        text = _dump(instance.to_json_dict())
        _write_out(args.out, text)
        return CommandOutcome(EXIT_OK, text)
    if args.what == "check":
        instance = FairDivInstance.from_json_dict(_load_json(args.instance))
        allocation = Allocation.from_json_dict(_load_json(args.allocation), instance.m)
        notion = FairnessNotion(args.notion.upper(), args.c)
        ok = check_fairness(instance, allocation, notion)
        payload = {"notion": notion.tag, "c": notion.c, "pass": ok}
        return CommandOutcome(EXIT_OK if ok else EXIT_CERT_FAIL, _dump(payload))
    if args.what == "minc":
        instance = FairDivInstance.from_json_dict(_load_json(args.instance))
        c_star, witness = brute_force_min_c(instance, args.notion.upper(), _cap(args))
        payload = {"notion": args.notion.upper(), "c_star": c_star,
                   "witness": witness.to_json_dict()}
        return CommandOutcome(EXIT_OK, _dump(payload))
    # allocate
    instance = FairDivInstance.from_json_dict(_load_json(args.instance))
    allocation, c, h = allocate_prop_via_odisc(instance, _oracle_config(args))
    payload = {
        "bundles": [list(b) for b in allocation.bundles],
        "c": c,
        "H": h,
        "dummy_goods": max(0, instance.k * h - instance.m),
        "pass": True,
    }
    return CommandOutcome(EXIT_OK, _dump(payload))


def _experiment_rows(args):
    solvers = [s.strip() for s in args.solver.split(",") if s.strip()]
    configs = [OracleConfig(kind=s, budget=args.iters, seed=args.seed) for s in solvers]
    cap = _cap(args)
    for k in args.k:
        check_multicolor_k(k)
    rows = []
    for n in args.n:
        for p in args.p:
            for solver, config in zip(solvers, configs):
                rows.append(("wdisc", n, None, p, solver, config))
        for k in args.k:
            rows.append(("multicolor", n, k, Fraction(1, k), "exact", None))
    if not rows:
        raise InputError("empty sweep grid: provide --n with --p and/or --k")
    return rows, cap


def _cmd_experiment(args) -> CommandOutcome:
    rows, cap = _experiment_rows(args)
    header = ["mode", "n", "k", "p", "solver", "t", "cols", "value", "exact",
              "lb_statement", "lb_proof", "reference_bound", "status", "pass"]
    if args.float_view:
        header.append("value_float")
    if args.timings:
        header.append("wall_ms")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)

    completed = 0
    failed = 0
    for mode, n, k, p, solver, config in rows:
        started = time.perf_counter()
        record = {
            "mode": mode, "n": n, "k": k if k else "", "p": format_rational(p),
            "solver": solver, "t": "", "cols": "", "value": "", "exact": "",
            "lb_statement": format_rational(lb_value(n, "statement")),
            "lb_proof": format_rational(lb_value(n, "proof")),
            "reference_bound": "", "status": "ok", "pass": "",
        }
        try:
            _p, t = stacked_shape(p, n)
            record["t"] = t
            record["cols"] = n * t
            if mode == "wdisc" and solver == "exact":
                report = certify_wdisc_lb(p, n, cap)
                record["value"] = format_rational(report.exact_value)
                record["exact"] = True
                record["pass"] = report.passed
            elif mode == "wdisc":
                construction = build_stacked(p, n)
                result = wdisc_heuristic(construction.matrix, construction.p, config)
                record["value"] = format_rational(result.value)
                record["exact"] = False
            else:
                record["reference_bound"] = format_rational(reference_bound(k, n))
                report = certify_multicolor_lb(k, n, cap)
                record["value"] = format_rational(report.exact_value)
                record["exact"] = True
                record["pass"] = report.passed
        except CapExceededError:
            record["status"] = "skipped:budget"
        if record["status"] == "ok":
            completed += 1
            if record["pass"] is False:
                failed += 1
        out_row = [record[name] for name in header if name not in ("value_float", "wall_ms")]
        if args.float_view:
            out_row.append(
                repr(float(parse_rational(record["value"]))) if record["value"] else ""
            )
        if args.timings:
            out_row.append(round((time.perf_counter() - started) * 1000, 3))
        writer.writerow(out_row)

    text = buffer.getvalue()
    _write_out(args.csv, text)
    if completed == 0:
        return CommandOutcome(EXIT_BUDGET, text, "all sweep rows exceeded their budgets\n")
    if failed:
        return CommandOutcome(EXIT_CERT_FAIL, text, f"{failed} sweep rows failed certification\n")
    return CommandOutcome(EXIT_OK, text)


def run(argv) -> CommandOutcome:
    """Execute one CLI invocation and report (exit code, stdout, stderr)."""
    try:
        args = _parse(argv)
    except SystemExit as exc:
        messages = _printed.__dict__.pop("messages", [])
        stdout = "".join(text for to_stdout, text in messages if to_stdout)
        stderr = "".join(text for to_stdout, text in messages if not to_stdout)
        return CommandOutcome(exc.code if exc.code else EXIT_OK, stdout, stderr)
    try:
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "wdisc":
            return _cmd_wdisc(args)
        if args.command == "odisc":
            return _cmd_odisc(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "fd":
            return _cmd_fd(args)
        return _cmd_experiment(args)
    except CapExceededError as exc:
        return CommandOutcome(EXIT_BUDGET, "", f"budget exceeded: {exc}\n")
    except VerificationError as exc:
        return CommandOutcome(EXIT_CERT_FAIL, "", f"verification failed: {exc}\n")
    except DisclabError as exc:
        return CommandOutcome(EXIT_USAGE, "", f"error: {exc}\n")


def main() -> None:
    outcome = run(sys.argv[1:])
    if outcome.stdout:
        sys.stdout.write(outcome.stdout)
    if outcome.stderr:
        sys.stderr.write(outcome.stderr)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
