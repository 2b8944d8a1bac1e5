"""Command-line front end.

Subcommands: classify, survey, search-c, adversary, signal.  Reports are
single JSON lines that embed the resolved configuration; tabular output
goes to CSV.  All file writes are atomic (temp file plus rename).  Exit
codes: 0 decided or passed, 1 usage or input error, 2 inconclusive or
infeasible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from evqc import adversary as adversary_mod
from evqc import engine, funcspace, measstruct, states, timedomain
from evqc.funcspace import BoolFunc, FunctionClass
from evqc.spinops import Operator, dump_operator, single_spin, total_spin, w_projector


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # inconclusive outcomes, so usage problems must come back as 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _write_atomic(path: Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            # mkstemp creates the file private (0600); give it the mode a
            # plain open() would, as the umask allows.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(record: dict, out: str | None) -> None:
    line = json.dumps(record, allow_nan=False)
    if out:
        _write_atomic(Path(out), line + "\n")
    else:
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
        else:
            f = (
                funcspace.sample_cn(n, args.seed)
                if args.seed is not None
                else funcspace.canonical_cn(n)
            )
    if expect_bits is not None and f.n != expect_bits:
        raise _UsageError(f"function must have {expect_bits} bits, got {f.n}")
    return f


def _resolve_system(args, n: int) -> states.SpinSystem:
    if args.sys:
        sys_obj = states.load_system(args.sys)
        if sys_obj.n != n:
            raise _UsageError(f"--sys describes {sys_obj.n} spins but {n} are needed")
        return sys_obj
    return states.demo_system(n)


def _measurement(kind: str, n: int) -> tuple[tuple[int, ...], str]:
    """--measure as the measured spins and their transverse axis."""
    if kind in ("fx", "fy"):
        return tuple(range(1, n + 1)), kind[1]
    prefix, _, index = kind.partition(":")
    if prefix == "ixj" and index.isdecimal() and 1 <= int(index) <= n:
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
    eps = engine.Resolution(args.eps)
    f = _load_function(args)
    if args.protocol == "pseudopure":
        verdict = engine.dj_decide_pseudopure(f, args.alpha, eps)
        n = f.n
        config_sys = None
    elif args.protocol == "cn-thermal":
        sys_obj = _resolve_system(args, f.n)
        verdict = engine.cn_decide_thermal(f, sys_obj, eps)
        n = f.n
        config_sys = states.system_to_dict(sys_obj)
    else:  # lifted
        sys_obj = _resolve_system(args, f.n + 1)
        verdict = engine.dj_decide_lifted(f, sys_obj, eps)
        n = sys_obj.n
        config_sys = states.system_to_dict(sys_obj)
    if args.dump_op:
        dump_operator(_protocol_measurement(args.protocol, n), args.dump_op)
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
    _emit(record, args.out)
    return 2 if verdict.decided is engine.Decision.INCONCLUSIVE else 0


def cmd_survey(args) -> int:
    if args.n > 3:
        raise _UsageError(f"exhaustive survey is limited to n <= 3, got n={args.n}")
    n = args.n
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
        if n < 2:
            raise _UsageError("--mode cn needs n >= 2")
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
    _write_atomic(Path(args.out), "\n".join(lines) + "\n")
    record = {
        "command": "survey",
        "config": {"mode": args.mode, "n": n, "out": args.out},
        "result": summary,
    }
    print(json.dumps(record, allow_nan=False))
    return 0


def cmd_search_c(args) -> int:
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
    timedomain.check_sampling(args.dt, args.count)
    if args.sys:
        sys_obj = states.load_system(args.sys)
    elif args.n is not None:
        sys_obj = states.demo_system(args.n)
    else:
        raise _UsageError("signal needs --sys or --n")
    n = sys_obj.n
    spins, axis = _measurement(args.measure, n)
    f = _load_function(args, expect_bits=n) if args.fn or args.func_class else None
    if args.state == "pulsed":
        trace = timedomain.transverse_signal(sys_obj, f, spins, axis, args.dt, args.count)
    else:
        # The thermal state is diagonal and stays so under any phase oracle,
        # while a transverse measurement has no diagonal: the readout is 0.
        trace = timedomain.SignalTrace(t_start=0.0, dt=args.dt, samples=np.zeros(args.count))
    spec = timedomain.spectrum(trace)
    peaks = timedomain.find_peaks(spec)
    if args.dump_op:
        m = total_spin(n, axis) if args.measure in ("fx", "fy") else single_spin(n, spins[0], axis)
        dump_operator(m, args.dump_op)

    out = Path(args.out)
    spec_path = out.with_suffix(".spectrum.csv") if out.suffix == ".csv" else Path(str(out) + ".spectrum.csv")
    _write_atomic(out, timedomain.trace_csv(trace))
    _write_atomic(spec_path, timedomain.spectrum_csv(spec))

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
            "peak_count": len(peaks),
            "peaks": [[omega, mag] for omega, mag in peaks],
        },
    }
    print(json.dumps(record, allow_nan=False))
    return 0


def build_parser() -> _Parser:
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
    p.add_argument("--seed", type=int, help="seed for --class cn sampling")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--dump-op", help="dump the measurement operator to this path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("survey", help="tabulate expectations over a whole class")
    p.add_argument("--mode", choices=["dj", "cn"], default="dj")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sys", help="spin-system JSON file (cn mode)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("search-c", help="search the best |c|/spectral-range ratio")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_search_c)

    p = sub.add_parser("adversary", help="verify the classical lower-bound witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("signal", help="sample a free-evolution trace and its spectrum")
    p.add_argument("--sys", help="spin-system JSON file")
    p.add_argument("--n", type=int, help="demo system size when --sys is absent")
    p.add_argument("--state", choices=["pulsed", "thermal"], default="pulsed")
    p.add_argument("--measure", default="fx", help="fx, fy, or ixj:<i>")
    p.add_argument("--fn", help="apply this oracle before sampling")
    p.add_argument("--class", dest="func_class", choices=["constant", "balanced", "cn"])
    p.add_argument("--seed", type=int, help="seed for --class cn sampling")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, help="trace CSV path; spectrum lands beside it")
    p.add_argument("--dump-op", help="dump the measurement operator to this path")
    p.set_defaults(func=cmd_signal)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
