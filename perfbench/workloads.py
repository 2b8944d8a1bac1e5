"""The four benchmark workloads: seeded inputs, one operation each, output checks.

Every workload is a fixed list of operations, one "pass".  The seed only
picks functions, spin systems and search seeds; the mix of operation kinds
and sizes in a pass is the same for every seed.  An operation has three
parts:

* ``run(out)`` is the timed call into the public API (``cli.main`` or a
  library function); it writes any files into ``out``.
* ``digest(result, out)`` runs untimed right after it and reduces the
  outputs to a small JSON-able record.  Two runs of the same operation must
  give identical digests.
* ``check(digest)`` runs after the timed loop and compares the digest with
  values the benchmark works out on its own.  It raises ``CheckFailed`` on
  a wrong output and returns the readout's relative deviation from the
  closed form (0.0 where there is no readout).

With ``fault`` set, each check compares against an expected value that is
deliberately wrong, so a working program must fail it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from evqc import cli, engine, funcspace, measstruct, spinops, states, timedomain

THETA = 2e-8  # theta * omega stays near 1e-4, well inside the linear regime
EPS = 1e-6  # readout resolution; the constant-vs-member gaps are >= 1e-5 * lambda
ALPHA = 0.5
READOUT_TOL = 1e-9  # relative to the protocol's readout scale
SIGNAL_TOL = 1e-8
DT = 1e-4
FAULT_SHIFT = 1e-3  # relative offset planted into expected values


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table_text(n: int, mask: int) -> str:
    # The repo's truth-table file format: header, then f(0) f(1) ... f(N-1).
    return f"n={n}\n{format(mask, f'0{1 << n}b')[::-1]}\n"


def _mask_bits(n: int, mask: int) -> np.ndarray:
    raw = np.frombuffer(mask.to_bytes((1 << n) // 8 or 1, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: 1 << n]


def _signs(n: int, mask: int) -> np.ndarray:
    return 1.0 - 2.0 * _mask_bits(n, mask).astype(float)


def _random_balanced(rng: np.random.Generator, size: int) -> int:
    ones = rng.permutation(size)[: size // 2]
    return sum(1 << int(j) for j in ones)


def _write_system(path: Path, n: int, rng: np.random.Generator, coupled: bool) -> dict:
    data = {"n": n, "omega": (2.0 * np.pi * rng.uniform(400.0, 600.0, n)).tolist(), "theta": THETA}
    if coupled:
        data["couplings"] = [[i, i + 1, float(rng.uniform(5.0, 15.0))] for i in range(1, n)]
    path.write_text(json.dumps(data), encoding="utf-8")
    return data


def _fixed_order(first, rest):
    """The warm-up operation first, then the rest in a seed-independent shuffle."""
    order = np.random.default_rng(0).permutation(len(rest))
    return [first] + [rest[i] for i in order]


def _transverse_readout(theta, omegas, n, signs, spins) -> float:
    """-(theta/4N) sum_(i in spins) omega_i sum_j s_j s_(j XOR 2^(n-i)):
    the pulsed-thermal readout of the x order of the given spins."""
    size = 1 << n
    idx = np.arange(size)
    total = sum(omegas[i - 1] * float(signs @ signs[idx ^ (1 << (n - i))]) for i in spins)
    return -theta * total / (4.0 * size)


class Op:
    label = ""

    def run(self, out: Path):
        raise NotImplementedError

    def digest(self, result, out: Path) -> dict:
        raise NotImplementedError

    def check(self, dg: dict) -> float:
        raise NotImplementedError


class CliOp(Op):
    """An in-process ``evqc`` command; stdout is captured, files land in out."""

    def argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def run(self, out):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(out))
        return code, buf.getvalue()

    def digest(self, result, out):
        code, stdout = result
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        dg = {
            "code": code,
            "stdout": stdout,
            "files": {name: _sha(data) for name, data in files.items()},
            "bytes_written": len(stdout.encode()) + sum(len(d) for d in files.values()),
        }
        dg.update(self.parse(stdout, files))
        return dg

    def parse(self, stdout: str, files: dict) -> dict:
        return {}


# ---------------------------------------------------------------- decide

PROTOCOLS = ("cn-thermal", "lifted", "pseudopure")
# (register size n, operations per protocol in one pass).  Small registers
# dominate the count, so the n = 9 and 10 operations form the latency tail.
DECIDE_MIX = ((7, 8), (8, 4), (9, 2), (10, 1))


class ClassifyOp(CliOp):
    def __init__(self, protocol, n, member, mask, fn_path, sys_path, system, fault):
        self.protocol, self.n, self.member, self.mask = protocol, n, member, mask
        self.fn_path, self.sys_path, self.system, self.fault = fn_path, sys_path, system, fault
        self.label = f"classify {protocol} n={n} {'member' if member else 'constant'}"

    def argv(self, out):
        argv = ["classify", "--protocol", self.protocol, "--fn", str(self.fn_path),
                "--eps", repr(EPS), "--out", str(out / "report.json")]
        if self.protocol == "pseudopure":
            argv += ["--alpha", repr(ALPHA)]
        else:
            argv += ["--sys", str(self.sys_path)]
        return argv

    def parse(self, stdout, files):
        return {"result": json.loads(files["report.json"])["result"]}

    def expected(self) -> tuple[str, float, float, float]:
        """Verdict, closed-form readout, readout scale and spectral range."""
        n = self.n
        if self.protocol == "pseudopure":
            size = 1 << n
            imb = self.mask.bit_count() - size // 2
            # pseudopure(n, a) = (1 - a/N) I/N + (a/N) W, read out with W.
            e = (1.0 - ALPHA / size) / size + 4.0 * ALPHA * imb * imb / size**3
            verdict = "NotConstant" if self.member else "NotBalanced"
            return verdict, e, 1.0, 1.0
        theta, omega = self.system["theta"], self.system["omega"]
        if self.protocol == "cn-thermal":
            s = _signs(n, self.mask)
            spins = range(1, n + 1)
            verdict = "NotConstant" if self.member else "NotInClass"
            lam = float(n)
        else:  # lifted: f on n-1 bits, upper half of the register fixed to 0
            s = np.concatenate([_signs(n - 1, self.mask), np.ones(1 << (n - 1))])
            spins = (1,)
            verdict = "NotConstant" if self.member else "NotBalanced"
            lam = 1.0
        e = _transverse_readout(theta, omega, n, s, spins)
        scale = theta * sum(omega[i - 1] for i in spins) / 4.0
        return verdict, e, scale, lam

    def check(self, dg):
        _require(dg["code"] == 0, f"exit code {dg['code']}")
        verdict, e, scale, lam = self.expected()
        if self.fault:
            e += FAULT_SHIFT * scale
        r = dg["result"]
        _require(r["decided"] == verdict, f"verdict {r['decided']}, expected {verdict}")
        _require(abs(r["lambda"] - lam) <= 1e-9 * lam, f"lambda {r['lambda']}, expected {lam}")
        dev = abs(r["expectation"] - e) / scale
        _require(dev <= READOUT_TOL, f"expectation {r['expectation']!r} vs closed form {e!r}")
        return dev


def build_decide(seed: int, inputs: Path, fault: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n, reps in DECIDE_MIX:
        for p_idx, protocol in enumerate(PROTOCOLS):
            for rep in range(reps):
                member = (rep + p_idx) % 2 == 0
                bits = n - 1 if protocol == "lifted" else n
                size = 1 << bits
                if not member:
                    mask = 0 if rng.random() < 0.5 else (1 << size) - 1
                elif protocol == "cn-thermal":
                    mask = funcspace.sample_cn(n, int(rng.integers(2**31))).mask
                else:
                    mask = _random_balanced(rng, size)
                tag = f"{protocol}-{n}-{rep}"
                fn_path = inputs / f"{tag}.fn"
                fn_path.write_text(_table_text(bits, mask), encoding="ascii")
                sys_path, system = None, None
                if protocol != "pseudopure":
                    sys_path = inputs / f"{tag}.json"
                    system = _write_system(sys_path, n, rng, coupled=False)
                ops.append(ClassifyOp(protocol, n, member, mask, fn_path, sys_path, system, fault))
    first = next(op for op in ops if op.protocol == "pseudopure")
    return _fixed_order(first, [op for op in ops if op is not first])


# ---------------------------------------------------------------- search

# (n, budget, operations per pass), one restart each.  Budgets are small so a
# run holds enough operations for its 90th percentile; most results are
# infeasible at these budgets, which measstruct.feasible_frac reports.
SEARCH_MIX = ((2, 2000, 8), (3, 2000, 4))
SEARCH_RESTARTS = 1


def _fx_spectrum(n: int) -> np.ndarray:
    # Total x spin of n spin-1/2: eigenvalue k - n/2 with multiplicity C(n, k).
    return np.array([k - n / 2 for k in range(n + 1) for _ in range(math.comb(n, k))])


class SearchOp(Op):
    def __init__(self, n, budget, seed, fault):
        self.n, self.budget, self.seed, self.fault = n, budget, seed, fault
        self.label = f"search-c n={n} budget={budget}"

    def run(self, out):
        return measstruct.search_max_c_ratio(
            self.n, budget=self.budget, seed=self.seed, restarts=SEARCH_RESTARTS
        )

    def digest(self, result, out):
        record = result.to_record()
        record["evaluations"] = result.evaluations
        return {"record": record}

    def check(self, dg):
        rec = dg["record"]
        _require((rec["n"], rec["budget"], rec["seed"]) == (self.n, self.budget, self.seed),
                 "record does not echo its configuration")
        size = 1 << self.n
        # c * W + diag(D) + A, A pure imaginary antisymmetric from its upper triangle.
        mat = np.full((size, size), rec["c"] / size, dtype=complex)
        mat[np.diag_indices(size)] += rec["D"]
        rows, cols = np.triu_indices(size, 1)
        mat[rows, cols] += 1j * np.asarray(rec["A_upper"])
        mat[cols, rows] -= 1j * np.asarray(rec["A_upper"])
        vals = np.linalg.eigvalsh(mat)
        target = _fx_spectrum(self.n) + (FAULT_SHIFT if self.fault else 0.0)
        residual = float(np.abs(vals - target).max())
        _require(abs(residual - rec["penalty_residual"]) <= 1e-9,
                 f"residual {rec['penalty_residual']!r}, recomputed {residual!r}")
        _require(rec["feasible"] == (residual < measstruct.FEASIBILITY_TOL),
                 f"feasible flag {rec['feasible']} disagrees with residual {residual:g}")
        ratio = abs(rec["c"]) / max(float(vals[-1] - vals[0]), 1e-12)
        _require(abs(ratio - rec["ratio"]) <= 1e-9 * max(1.0, ratio),
                 f"ratio {rec['ratio']!r}, recomputed {ratio!r}")
        return 0.0


def build_search(seed: int, inputs: Path, fault: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = [SearchOp(n, budget, int(rng.integers(2**31)), fault)
           for n, budget, count in SEARCH_MIX for _ in range(count)]
    return _fixed_order(ops[0], ops[1:])


# ---------------------------------------------------------------- signal

# (n, samples, operations per pass).  Memory grows as samples x nonzero
# weights, so the n = 9, 2048-sample operation sets the peak.
SIGNAL_MIX = ((6, 1024, 2), (6, 2048, 2), (7, 1024, 2), (7, 2048, 1),
              (8, 1024, 1), (8, 2048, 1), (9, 1024, 1), (9, 2048, 1))


class SignalOp(CliOp):
    def __init__(self, n, count, mask, fn_path, sys_path, system, fault):
        self.n, self.count, self.mask = n, count, mask
        self.fn_path, self.sys_path, self.system, self.fault = fn_path, sys_path, system, fault
        self.label = f"signal n={n} count={count}"
        self.probe = sorted({0, 1, count // 3, count - 1})
        self._expected = None

    def argv(self, out):
        return ["signal", "--sys", str(self.sys_path), "--fn", str(self.fn_path),
                "--dt", repr(DT), "--count", str(self.count), "--out", str(out / "trace.csv")]

    def parse(self, stdout, files):
        rows = list(csv.reader(io.StringIO(files["trace.csv"].decode("ascii"))))[1:]
        spec_rows = files["trace.spectrum.csv"].decode("ascii").count("\n") - 1
        return {
            "record": json.loads(stdout)["result"] if stdout else None,
            "rows": len(rows),
            "spectrum_rows": spec_rows,
            "probe": {str(k): float(rows[k][2]) for k in self.probe if k < len(rows)},
        }

    def expected(self) -> dict[int, float]:
        if self._expected is None:
            sys_obj = states.parse_system(self.system)
            s = _signs(self.n, self.mask)
            rho = states.pulsed_thermal(sys_obj).mat * np.outer(s, s)  # oracle O rho O
            rho = states.DensityMatrix(spinops.Operator(rho, hermitian=True))
            m = spinops.total_spin(self.n, "x")
            h = timedomain.hamiltonian(sys_obj)
            self._expected = {k: engine.trace_expectation(timedomain.heisenberg_op(m, h, k * DT), rho)
                              for k in self.probe}
            self._expected[0] = engine.trace_expectation(m, rho)
        return self._expected

    def check(self, dg):
        _require(dg["code"] == 0, f"exit code {dg['code']}")
        _require(dg["rows"] == self.count and dg["spectrum_rows"] == self.count,
                 f"{dg['rows']} trace rows and {dg['spectrum_rows']} spectrum rows, expected {self.count}")
        _require(dg["record"]["first_sample"] == dg["probe"]["0"], "first_sample disagrees with the CSV")
        scale = THETA * sum(self.system["omega"]) / 4.0
        worst = 0.0
        for k, want in self.expected().items():
            if self.fault:
                want += FAULT_SHIFT * scale
            dev = abs(dg["probe"][str(k)] - want) / scale
            _require(dev <= SIGNAL_TOL, f"sample {k} is {dg['probe'][str(k)]!r}, expected {want!r}")
            worst = max(worst, dev)
        return worst


def build_signal(seed: int, inputs: Path, fault: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n, count, reps in SIGNAL_MIX:
        for rep in range(reps):
            size = 1 << n
            kind = (n + count // 1024 + rep) % 3
            if kind == 0:
                mask = funcspace.sample_cn(n, int(rng.integers(2**31))).mask
            elif kind == 1:
                mask = _random_balanced(rng, size)
            else:
                mask = 0 if rng.random() < 0.5 else (1 << size) - 1
            tag = f"signal-{n}-{count}-{rep}"
            fn_path = inputs / f"{tag}.fn"
            fn_path.write_text(_table_text(n, mask), encoding="ascii")
            sys_path = inputs / f"{tag}.json"
            system = _write_system(sys_path, n, rng, coupled=True)
            ops.append(SignalOp(n, count, mask, fn_path, sys_path, system, fault))
    return _fixed_order(ops[0], ops[1:])


# ---------------------------------------------------------------- sweep

ADVERSARY_SIZES = (6, 7, 8, 9, 10)
ADVERSARY_TRIALS = 10
CODEC_SIZES = (12, 13, 14, 15, 16)


def _cn_masks_n3() -> set[int]:
    # C_N at n = 3 straight from the definition: two ones at Hamming
    # distance other than 1, or the complement of such a table.
    base = {(1 << a) | (1 << b) for a, b in itertools.combinations(range(8), 2)
            if (a ^ b).bit_count() != 1}
    return base | {0xFF ^ m for m in base}


class SurveyOp(CliOp):
    def __init__(self, mode, sys_path, system, fault):
        self.mode, self.sys_path, self.system, self.fault = mode, sys_path, system, fault
        self.label = f"survey {mode} n=3"

    def argv(self, out):
        argv = ["survey", "--mode", self.mode, "--n", "3", "--out", str(out / "survey.csv")]
        return argv + (["--sys", str(self.sys_path)] if self.mode == "cn" else [])

    def parse(self, stdout, files):
        rows = list(csv.reader(io.StringIO(files["survey.csv"].decode("ascii"))))[1:]
        return {"record": json.loads(stdout)["result"] if stdout else None,
                "rows": [[int(r[0], 16), int(r[1]), float(r[2]), r[3]] for r in rows]}

    def check(self, dg):
        _require(dg["code"] == 0, f"exit code {dg['code']}")
        rows = dg["rows"]
        shift = FAULT_SHIFT if self.fault else 0.0
        if self.mode == "dj":
            _require(len(rows) == 256 and dg["record"]["square_law_violations"] == 0,
                     f"{len(rows)} rows, record {dg['record']}")
            for mask, imb, e, _ in rows:
                _require(imb == mask.bit_count() - 4, f"imbalance {imb} for 0x{mask:x}")
                # Pure W state read with W: the square law 4 imb^2 / N^2.
                _require(abs(e - (4.0 * imb * imb / 64 + shift)) <= 1e-12, f"0x{mask:x} reads {e!r}")
            return 0.0
        want = _cn_masks_n3()
        _require({r[0] for r in rows} == want and len(rows) == len(want),
                 f"{len(rows)} C_N rows, expected {len(want)}")
        scale = THETA * sum(self.system["omega"]) / 4.0
        worst = max(abs(e - shift * scale) / scale for _, _, e, _ in rows)
        _require(worst <= READOUT_TOL and all(r[3] == "ClassCN" for r in rows),
                 "a C_N member does not read zero")
        return worst


class AdversaryOp(CliOp):
    def __init__(self, n, seed, fault):
        self.n, self.seed, self.fault = n, seed, fault
        self.label = f"adversary n={n}"

    def argv(self, out):
        return ["adversary", "--n", str(self.n), "--trials", str(ADVERSARY_TRIALS),
                "--seed", str(self.seed), "--out", str(out / "adversary.json")]

    def parse(self, stdout, files):
        return {"record": json.loads(files["adversary.json"])}

    def check(self, dg):
        _require(dg["code"] == 0, f"exit code {dg['code']}")
        rec = dg["record"]
        want = 2 ** (self.n - 1) + 1 + (1 if self.fault else 0)
        _require(rec["config"]["min_queries"] == want, f"min_queries {rec['config']['min_queries']}")
        _require(rec["result"]["failures"] == [], f"failures {rec['result']['failures']}")
        _require(rec["result"]["trials"] == ADVERSARY_TRIALS, "trial count not echoed")
        return 0.0


class CodecOp(Op):
    """sample_cn, then format/parse, complement and lift round trips."""

    def __init__(self, n, seed, fault):
        self.n, self.seed, self.fault = n, seed, fault
        self.label = f"codec n={n}"

    def run(self, out):
        f = funcspace.sample_cn(self.n, self.seed)
        text = funcspace.format_function(f)
        return f, text, funcspace.parse_function(text), funcspace.complement(f), funcspace.lift(f)

    def digest(self, result, out):
        f, text, parsed, comp, lifted = result
        full = (1 << (1 << self.n)) - 1
        support = np.flatnonzero(_mask_bits(self.n, f.mask))
        return {
            "text_sha": _sha(text.encode()),
            "text_ok": text == _table_text(self.n, f.mask),
            "parse_ok": (parsed.n, parsed.mask) == (self.n, f.mask),
            "complement_ok": (comp.n, comp.mask) == (self.n, f.mask ^ full),
            "lift_ok": (lifted.n, lifted.mask) == (self.n + 1, f.mask),
            "ones": int(support.size),
            "even_parity": bool(np.all(np.bitwise_count(support) % 2 == 0)),
        }

    def check(self, dg):
        bad = [k for k in ("text_ok", "parse_ok", "complement_ok", "lift_ok", "even_parity") if not dg[k]]
        _require(not bad, f"failed round trips: {bad}")
        want = (1 << self.n) // 4 + (1 if self.fault else 0)
        _require(dg["ones"] == want, f"{dg['ones']} ones, expected {want}")
        return 0.0


class EnumerateOp(Op):
    label = "enumerate BalancedW n=4"

    def __init__(self, fault):
        self.fault = fault

    def run(self, out):
        return list(funcspace.enumerate_class(4, funcspace.FunctionClass.BALANCED_W))

    def digest(self, result, out):
        masks = [f.mask for f in result]
        keys = [format(m, "016b")[::-1] for m in masks]  # truth table, f(0) first
        return {
            "count": len(masks),
            "sha": _sha(",".join(map(str, masks)).encode()),
            "all_n4": all(f.n == 4 for f in result),
            "distinct": len(set(masks)) == len(masks),
            "all_balanced": all(m.bit_count() == 8 for m in masks),
            "ordered": keys == sorted(keys),
        }

    def check(self, dg):
        want = math.comb(16, 8) + (1 if self.fault else 0)
        _require(dg["count"] == want, f"{dg['count']} members, expected {want}")
        bad = [k for k in ("all_n4", "distinct", "all_balanced", "ordered") if not dg[k]]
        _require(not bad, f"enumeration is not {bad}")
        return 0.0


def build_sweep(seed: int, inputs: Path, fault: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    sys_path = inputs / "survey-cn.json"
    system = _write_system(sys_path, 3, rng, coupled=False)
    first = SurveyOp("dj", None, None, fault)
    rest = [SurveyOp("cn", sys_path, system, fault)]
    rest += [AdversaryOp(n, int(rng.integers(2**31)), fault) for n in ADVERSARY_SIZES]
    rest += [CodecOp(n, int(rng.integers(2**31)), fault) for n in CODEC_SIZES]
    rest.append(EnumerateOp(fault))
    return _fixed_order(first, rest)


WORKLOADS = {
    "decide": build_decide,
    "search": build_search,
    "signal": build_signal,
    "sweep": build_sweep,
}
