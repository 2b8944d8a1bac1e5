"""Command-line front end.

Subcommands: classify, survey, search-c, adversary, signal.  Reports are
single JSON lines that embed the resolved configuration; tabular output
goes to CSV.  All file writes are atomic (temp file plus rename).  Exit
codes: 0 decided or passed, 1 usage or input error, 2 inconclusive or
infeasible.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from evqc import adversary as adversary_mod
from evqc import engine, funcspace, measstruct, states, timedomain
from evqc.funcspace import BoolFunc, FunctionClass
from evqc.spinops import Operator, operator_text, single_spin, total_spin, w_projector


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # inconclusive outcomes, so usage problems must come back as 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _refuse_targets(*paths) -> None:
    """Refuse an output path that is empty, is a directory, whose directory
    does not exist, or that names the same file as an earlier one, naming
    the path as given; None stands for no output."""
    seen = set()
    for path in paths:
        if path is None:
            continue
        if path == "":
            raise _UsageError("empty output path")
        path = Path(path)
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
        if not path.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "No such directory to write into", str(path))
        if os.path.abspath(path) in seen:
            raise _UsageError(f"two outputs name one file: '{path}'")
        seen.add(os.path.abspath(path))


def _write_atomic(files: dict) -> None:
    """Write every file or none: each text goes to a temporary file beside
    its target, and the targets are replaced only once all of those are
    whole; on failure every temporary file not yet renamed is removed.
    The targets are not checked again: each cmd_* refuses them first.

    A temporary file is created with mode 0666, which the kernel narrows
    by the umask, so it gets the mode a plain open() would give.  O_EXCL
    skips any name that already exists, whoever made it.
    """
    targets = [(Path(path), text.encode("utf-8")) for path, text in files.items()]
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC
    pending = []
    try:
        for path, data in targets:
            for serial in itertools.count():
                tmp = path.with_name(f"{path.name}.{os.getpid()}-{serial}.tmp")
                try:
                    fd = os.open(tmp, flags, 0o666)
                except FileExistsError:
                    continue
                break
            pending.append((tmp, path))
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
        while pending:
            os.replace(*pending[0])
            pending.pop(0)
    except BaseException:
        for tmp, _ in pending:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _emit(record: dict, out: str | None, files: dict | None = None) -> None:
    """Write the output files and, with --out, the report in one atomic
    call; without --out the report goes to stdout once the files are in."""
    line = json.dumps(record, allow_nan=False)
    files = dict(files or {})
    if out is not None:
        files[Path(out)] = line + "\n"
    if files:
        _write_atomic(files)
    if out is None:
        print(line)


def _load_function(args, expect_bits: int | None = None) -> BoolFunc:
    """Resolve --fn / --class / --n into a concrete function."""
    if args.fn:
        f = funcspace.parse_function(Path(args.fn).read_text(encoding="utf-8"))
        if args.n is not None and args.n != f.n:
            raise _UsageError(f"--n {args.n} disagrees with the {f.n}-bit function file")
    else:
        if args.func_class is None:
            raise _UsageError("need either --fn or --class")
        n = args.n if args.n is not None else expect_bits
        if n is None:
            raise _UsageError("--class needs --n")
        if args.func_class == "constant":
            f = funcspace.constant_zero(n)
        elif args.func_class == "balanced":
            f = funcspace.canonical_balanced(n)
        elif args.seed is None:
            f = funcspace.canonical_cn(n)
        else:
            f = funcspace.sample_cn(n, args.seed)
    if expect_bits is not None and f.n != expect_bits:
        raise _UsageError(f"function must have {expect_bits} bits, got {f.n}")
    return f


def _resolve_system(args, n: int | None) -> states.SpinSystem:
    """The --sys system, checked against n when n is given, else the n-spin demo system."""
    if args.sys:
        sys_obj = states.load_system(args.sys)
        if n is not None and sys_obj.n != n:
            raise _UsageError(f"--sys describes {sys_obj.n} spins but {n} are needed")
        return sys_obj
    if n is None:
        raise _UsageError("need --sys or --n")
    return states.demo_system(n)


def _measurement(kind: str, n: int) -> tuple[tuple[int, ...], str]:
    """--measure as the measured spins and their transverse axis."""
    if kind in ("fx", "fy"):
        return tuple(range(1, n + 1)), kind[1]
    prefix, _, index = kind.partition(":")
    if prefix == "ixj" and index.isascii() and index.isdecimal() and 1 <= int(index) <= n:
        return (int(index),), "x"
    raise _UsageError(f"unknown measurement {kind!r}; use fx, fy, or ixj:<i> with 1 <= i <= {n}")


def _protocol_measurement(protocol: str, n: int) -> Operator:
    """The dense measurement a protocol reads; built only for --dump-op."""
    if protocol == "pseudopure":
        return w_projector(n)
    if protocol == "cn-thermal":
        return total_spin(n, "x")
    return single_spin(n, 1, "x")


def cmd_classify(args) -> int:
    _refuse_targets(args.dump_op, args.out)
    eps = engine.Resolution(args.eps)
    f = _load_function(args)
    if args.protocol == "pseudopure":
        verdict = engine.dj_decide_pseudopure(f, args.alpha, eps)
        n, config_sys = f.n, None
    else:  # cn-thermal on n spins, or lifted on n + 1
        lifted = args.protocol == "lifted"
        sys_obj = _resolve_system(args, f.n + lifted)
        decide = engine.dj_decide_lifted if lifted else engine.cn_decide_thermal
        verdict = decide(f, sys_obj, eps)
        n, config_sys = sys_obj.n, states.system_to_dict(sys_obj)
    files = {}
    if args.dump_op is not None:
        files[Path(args.dump_op)] = operator_text(_protocol_measurement(args.protocol, n))
    record = {
        "command": "classify",
        "config": {
            "protocol": args.protocol,
            "function": str(f),
            "n_bits": f.n,
            "alpha": args.alpha if args.protocol == "pseudopure" else None,
            "system": config_sys,
            "epsilon": args.eps,
            "seed": args.seed,
        },
        "result": engine.verdict_record(verdict, n),
    }
    _emit(record, args.out, files)
    return 2 if verdict.decided is engine.Decision.INCONCLUSIVE else 0


def cmd_survey(args) -> int:
    _refuse_targets(args.out)
    n = args.n
    if not 1 <= n <= 3:
        raise _UsageError(f"exhaustive survey needs 1 <= n <= 3, got n={n}")
    size = 1 << n
    rows = []
    if args.mode == "dj":
        m = w_projector(n)
        rho = states.pure_w(n)
        lines = ["f_hex,imbalance,expectation,class,matches_square_law"]
        for mask in range(1 << size):
            f = BoolFunc(n, mask)
            e = engine.expectation(m, rho, f)
            imb = funcspace.imbalance(f)
            predicted = 4.0 * imb * imb / (size * size)
            ok = abs(e - predicted) <= 1e-10
            rows.append(ok)
            lines.append(
                f"0x{mask:x},{imb},{e:.17g},{funcspace.classify(f).value},{int(ok)}"
            )
        summary = {"rows": len(lines) - 1, "square_law_violations": rows.count(False)}
    else:  # cn
        funcspace._check_cn_width(n)
        sys_obj = _resolve_system(args, n)
        mm = total_spin(n, "x")
        rho = states.pulsed_thermal(sys_obj)
        b = engine.b_matrix(rho, mm)
        lines = ["f_hex,imbalance,expectation,class"]
        members = list(funcspace.enumerate_class(n, FunctionClass.CLASS_CN))
        for f in members:
            e = complex(engine.s_functional(b, f)).real
            lines.append(
                f"0x{f.mask:x},{funcspace.imbalance(f)},{e:.17g},{funcspace.classify(f).value}"
            )
        summary = {"rows": len(members)}
    record = {
        "command": "survey",
        "config": {"mode": args.mode, "n": n, "out": args.out},
        "result": summary,
    }
    _emit(record, None, {Path(args.out): "\n".join(lines) + "\n"})
    return 0


def cmd_search_c(args) -> int:
    _refuse_targets(args.out)
    result = measstruct.search_max_c_ratio(
        args.n, budget=args.budget, seed=args.seed, restarts=args.restarts
    )
    record = {
        "command": "search-c",
        "config": {
            "n": args.n,
            "budget": args.budget,
            "seed": args.seed,
            "restarts": args.restarts,
        },
        "result": result.to_record(),
    }
    _emit(record, args.out)
    return 0 if result.feasible else 2


def cmd_adversary(args) -> int:
    _refuse_targets(args.out)
    report = adversary_mod.verify_adversary(args.n, trials=args.trials, seed=args.seed)
    record = {
        "command": "adversary",
        "config": {
            "n": args.n,
            "trials": args.trials,
            "seed": args.seed,
            "min_queries": adversary_mod.min_queries(args.n),
        },
        "result": report.to_record(),
    }
    _emit(record, args.out)
    return 0 if not report.failures else 2


def cmd_signal(args) -> int:
    out = Path(args.out)
    spec_path = out.with_suffix(".spectrum.csv") if out.suffix == ".csv" else Path(str(out) + ".spectrum.csv")
    _refuse_targets(args.dump_op, args.out, spec_path)
    timedomain.check_sampling(args.dt, args.count)
    sys_obj = _resolve_system(args, args.n)
    n = sys_obj.n
    spins, axis = _measurement(args.measure, n)
    f = _load_function(args, expect_bits=n) if args.fn or args.func_class else None
    if args.state == "pulsed":
        trace = timedomain.transverse_signal(sys_obj, f, spins, axis, args.dt, args.count)
    else:
        # The thermal state is diagonal and stays so under any phase oracle,
        # while a transverse measurement has no diagonal: the readout is 0.
        trace = timedomain.SignalTrace(dt=args.dt, samples=np.zeros(args.count))
    spec = timedomain.spectrum(trace)
    peaks = timedomain.find_peaks(spec)
    files = {}
    if args.dump_op is not None:
        m = total_spin(n, axis) if args.measure in ("fx", "fy") else single_spin(n, spins[0], axis)
        files[Path(args.dump_op)] = operator_text(m)
    files[out] = timedomain.trace_csv(trace)
    files[spec_path] = timedomain.spectrum_csv(spec)

    record = {
        "command": "signal",
        "config": {
            "system": states.system_to_dict(sys_obj),
            "state": args.state,
            "measure": args.measure,
            "function": str(f) if f is not None else None,
            "dt": args.dt,
            "count": args.count,
            "trace_csv": str(out),
            "spectrum_csv": str(spec_path),
        },
        "result": {
            "first_sample": float(trace.samples[0]),
            "peak_count": peaks[0].size,
            "peaks": np.column_stack(peaks).tolist(),
        },
    }
    _emit(record, None, files)
    return 0


def _seed(text: str) -> int:
    """argparse type of every --seed: a non-negative integer, as numpy's
    generators need."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


@functools.cache
def build_parser() -> _Parser:
    """The argument parser; built once per process, as parsing leaves it unchanged."""
    parser = _Parser(prog="evqc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run a decision protocol on one function")
    p.add_argument("--protocol", required=True, choices=["pseudopure", "cn-thermal", "lifted"])
    p.add_argument("--fn", help="truth-table file")
    p.add_argument("--class", dest="func_class", choices=["constant", "balanced", "cn"])
    p.add_argument("--n", type=int, help="argument bits (with --class)")
    p.add_argument("--eps", type=float, required=True, help="readout resolution")
    p.add_argument("--alpha", type=float, default=1.0, help="pseudopure weight")
    p.add_argument("--sys", help="spin-system JSON file")
    p.add_argument("--seed", type=_seed, help="seed for --class cn sampling")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--dump-op", help="dump the measurement operator to this path")

    p = sub.add_parser("survey", help="tabulate expectations over a whole class")
    p.add_argument("--mode", choices=["dj", "cn"], default="dj")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sys", help="spin-system JSON file (cn mode)")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("search-c", help="search the best |c|/spectral-range ratio")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("adversary", help="verify the classical lower-bound witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("signal", help="sample a free-evolution trace and its spectrum")
    p.add_argument("--sys", help="spin-system JSON file")
    p.add_argument("--n", type=int, help="demo system size when --sys is absent")
    p.add_argument("--state", choices=["pulsed", "thermal"], default="pulsed")
    p.add_argument("--measure", default="fx", help="fx, fy, or ixj:<i>")
    p.add_argument("--fn", help="apply this oracle before sampling")
    p.add_argument("--class", dest="func_class", choices=["constant", "balanced", "cn"])
    p.add_argument("--seed", type=_seed, help="seed for --class cn sampling")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, help="trace CSV path; spectrum lands beside it")
    p.add_argument("--dump-op", help="dump the measurement operator to this path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Looked up at call time: the cached parser must not pin the cmd_*
        # functions, so a later rebinding (a monkeypatch, a tracer) runs.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (_UsageError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
