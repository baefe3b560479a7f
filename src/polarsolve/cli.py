"""Command-line surface.

Five subcommands::

    polarsolve solve      solve one instance, print the certified result
    polarsolve sweep      equilibria along a w grid, CSV
    polarsolve locus      the symmetry locus mu_v = w(1-2 mu_i), CSV
    polarsolve verify     run the named verification checks
    polarsolve empirical  per-year polarization from legislator scores

Parameter precedence is flags > ``--config`` JSON > documented defaults.
Every error path exits nonzero after a single machine-parsable line of
the form ``error: <slug>: <reason>`` on stderr (slugs: ``invalid-args``,
``invalid-params``, ``invalid-config``, ``invalid-input``,
``no-convergence``).  Exit codes: 2 for anything invalid, 3 for solver
non-convergence, 1 for a result that is computable but fails its
certification or check threshold.

CSV output is comma-delimited with a header row, 17-significant-digit
floats (lossless double round-trip), ``true``/``false`` booleans,
``nan`` for unavailable values, LF line endings, UTF-8.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Callable, NoReturn, Sequence

from .analysis import sweep_w, symmetry_locus_mu_v
from .errors import DomainError, InvalidParamsError, PolarsolveError, SolverError
from .model import ModelParams
from .solver import LOCUS_TOL, SolverConfig, solve_asymmetric, solve_symmetric
from .verify import DEFAULT_SEED, run_checks

__all__ = ["RunConfig", "PolarizationRecord", "main", "entrypoint"]

_COMMANDS = ("solve", "sweep", "locus", "verify", "empirical")

_SWEEP_COLUMNS = (
    "w", "p_L", "p_R", "delta", "pr_L",
    "dpL_dw_analytic", "dpL_dw_fd", "soc_L", "soc_R", "certified",
)

_TOP_KEYS = frozenset(
    {"params", "solver", "out", "seed", "w_min", "w_max", "w_steps", "mode",
     "w_list", "mu_i_steps", "only"}
)
_PARAM_KEYS = frozenset({"w", "V", "sigma_i", "sigma_v", "mu_i", "mu_v"})
_SOLVER_KEYS = frozenset({"tol_root", "tol_fp", "max_iter", "damping"})


class _CliError(Exception):
    """Config/input problem surfaced as an error line + exit code."""

    def __init__(self, slug: str, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.slug = slug
        self.code = code


@dataclass(frozen=True, slots=True)
class RunConfig:
    """One fully resolved invocation: model + solver + command fields.

    Defaults (used when neither a flag nor a config value is given):
    params w=1, V=1, sigma_i=1, sigma_v=1, mu_i=0.5, mu_v=0; solver as
    in :class:`SolverConfig`; sweep grid w in [0, 3] with 121 steps,
    symmetric mode; locus w_list (0.5, 1, 2) with 101 mu_i points;
    seed 1729; output to stdout.
    """

    command: str
    params: ModelParams
    solver: SolverConfig
    out: Path | None = None
    seed: int = DEFAULT_SEED
    w_min: float = 0.0
    w_max: float = 3.0
    w_steps: int = 121
    mode: str = "symmetric"
    w_list: tuple[float, ...] = (0.5, 1.0, 2.0)
    mu_i_steps: int = 101
    only: tuple[str, ...] | None = None
    input_path: Path | None = None

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise InvalidParamsError(f"unknown command {self.command!r}")
        if not 0 <= self.seed < 2**64:
            raise InvalidParamsError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not (math.isfinite(self.w_min) and math.isfinite(self.w_max)):
            raise InvalidParamsError("sweep bounds must be finite")
        if self.w_min < 0.0:
            raise InvalidParamsError(f"w_min must be >= 0, got {self.w_min}")
        if not self.w_min < self.w_max:
            raise InvalidParamsError(
                f"w_min must be below w_max, got [{self.w_min}, {self.w_max}]"
            )
        if self.w_steps < 2:
            raise InvalidParamsError(f"w_steps must be >= 2, got {self.w_steps}")
        if self.mode not in ("symmetric", "asymmetric"):
            raise InvalidParamsError(
                f"mode must be 'symmetric' or 'asymmetric', got {self.mode!r}"
            )
        if not self.w_list:
            raise InvalidParamsError("w_list must be nonempty")
        for w in self.w_list:
            if not math.isfinite(w) or w < 0.0:
                raise InvalidParamsError(f"w_list values must be finite and >= 0, got {w}")
        if self.mu_i_steps < 2:
            raise InvalidParamsError(f"mu_i_steps must be >= 2, got {self.mu_i_steps}")


@dataclass(frozen=True, slots=True)
class PolarizationRecord:
    """One year of the empirical series: mean R score minus mean L score."""

    year: int
    polarization: float


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # keep the error-line contract
        self.exit(2, f"error: invalid-args: {message}\n")


def _build_parser() -> _ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    grp = shared.add_argument_group("model parameters")
    grp.add_argument("--w", type=float, help="policy-motivation weight (default 1)")
    grp.add_argument("--V", type=float, help="office rent (default 1)")
    grp.add_argument("--sigma-i", type=float, help="ideological-bliss std dev (default 1)")
    grp.add_argument("--sigma-v", type=float, help="valence-shock std dev (default 1)")
    grp.add_argument("--mu-i", type=float, help="mean ideological bliss (default 0.5)")
    grp.add_argument("--mu-v", type=float, help="mean valence shock (default 0)")
    grp = shared.add_argument_group("run control")
    grp.add_argument("--config", type=Path, metavar="PATH", help="JSON config (flags override it)")
    grp.add_argument("--out", type=Path, metavar="PATH", help="output file (default: stdout)")
    grp.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")

    parser = _ArgumentParser(
        prog="polarsolve",
        description="Equilibrium platforms for two-party spatial competition "
        "under ideological and valence uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sub.add_parser(
        "solve", parents=[shared],
        help="solve one instance and print the certified equilibrium",
    )

    p = sub.add_parser("sweep", parents=[shared], help="equilibria along a w grid (CSV)")
    p.add_argument("--w-min", type=float, help="grid start (default 0)")
    p.add_argument("--w-max", type=float, help="grid end (default 3)")
    p.add_argument("--w-steps", type=int, help="number of grid points (default 121)")
    p.add_argument(
        "--mode", choices=("symmetric", "asymmetric"),
        help="solver per row (default symmetric)",
    )

    p = sub.add_parser(
        "locus", parents=[shared],
        help="symmetry locus mu_v = w(1-2*mu_i) over a mu_i grid (CSV)",
    )
    p.add_argument("--w-list", metavar="W1,W2,...", help="w values (default 0.5,1,2)")
    p.add_argument("--mu-i-steps", type=int, help="mu_i grid points on [0, 1] (default 101)")

    p = sub.add_parser("verify", parents=[shared], help="run the named verification checks")
    p.add_argument(
        "--only", action="append", metavar="CHECK",
        help="check id to run (repeatable or comma-separated; default all)",
    )

    p = sub.add_parser(
        "empirical", parents=[shared],
        help="per-year polarization (mean R - mean L) from a year,party,score CSV",
    )
    p.add_argument("input", type=Path, help="CSV with header year,party,score; party in {L, R}")
    return parser


def _read_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError("invalid-config", f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError("invalid-config", f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise _CliError(
            "invalid-config", f"config root must be a JSON object, got {type(doc).__name__}"
        )
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise _CliError("invalid-config", f"unknown config key(s): {', '.join(unknown)}")
    for section, allowed in (("params", _PARAM_KEYS), ("solver", _SOLVER_KEYS)):
        sub = doc.get(section, {})
        if not isinstance(sub, dict):
            raise _CliError("invalid-config", f"'{section}' must be a JSON object")
        unknown = sorted(set(sub) - allowed)
        if unknown:
            raise _CliError(
                "invalid-config", f"unknown {section} key(s): {', '.join(unknown)}"
            )
    return doc


def _config_number(key: str, value, integral: bool = False) -> float | int:
    """A numeric setting as float (or int where ``integral``).  JSON
    booleans, and fractional values where an integer is required, are
    rejected instead of coerced."""
    if isinstance(value, bool):
        raise _CliError(
            "invalid-config", f"bad config value: {key} must be a number, got {value!r}"
        )
    if not integral:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise _CliError(
            "invalid-config", f"bad config value: {key} must be an integer, got {value!r}"
        )
    return int(value)


def _config_string(key: str, value) -> str:
    """A text setting, rejected unless it is a JSON string."""
    if not isinstance(value, str):
        raise _CliError(
            "invalid-config", f"bad config value: {key} must be a string, got {value!r}"
        )
    return value


def _make_config(args: argparse.Namespace) -> RunConfig:
    doc = _read_config_file(args.config) if args.config is not None else {}
    pdoc = doc.get("params", {})
    sdoc = doc.get("solver", {})

    def pick(flag, table: dict, key: str, default, integral: bool = False):
        value = flag if flag is not None else table.get(key, default)
        return _config_number(key, value, integral)

    try:
        params = ModelParams(
            w=pick(args.w, pdoc, "w", 1.0),
            V=pick(args.V, pdoc, "V", 1.0),
            sigma_i=pick(args.sigma_i, pdoc, "sigma_i", 1.0),
            sigma_v=pick(args.sigma_v, pdoc, "sigma_v", 1.0),
            mu_i=pick(args.mu_i, pdoc, "mu_i", 0.5),
            mu_v=pick(args.mu_v, pdoc, "mu_v", 0.0),
        )
        solver = SolverConfig(
            **{key: _config_number(key, v, key == "max_iter") for key, v in sdoc.items()}
        )
        seed = pick(args.seed, doc, "seed", DEFAULT_SEED, integral=True)
    except PolarsolveError:
        raise
    except (TypeError, ValueError) as exc:
        raise _CliError("invalid-config", f"bad config value: {exc}") from exc

    out = args.out
    if out is None and "out" in doc:
        out = Path(_config_string("out", doc["out"]))

    extra: dict = {}
    if args.command == "sweep":
        try:
            extra = {
                "w_min": pick(args.w_min, doc, "w_min", 0.0),
                "w_max": pick(args.w_max, doc, "w_max", 3.0),
                "w_steps": pick(args.w_steps, doc, "w_steps", 121, integral=True),
                "mode": args.mode or _config_string("mode", doc.get("mode", "symmetric")),
            }
        except (TypeError, ValueError) as exc:
            raise _CliError("invalid-config", f"bad sweep value: {exc}") from exc
    elif args.command == "locus":
        if args.w_list is not None:
            try:
                w_list = tuple(float(tok) for tok in args.w_list.split(",") if tok.strip())
            except ValueError as exc:
                raise _CliError("invalid-args", f"--w-list: {exc}") from exc
        elif "w_list" in doc:
            try:
                w_list = tuple(_config_number("w_list", x) for x in doc["w_list"])
            except (TypeError, ValueError) as exc:
                raise _CliError("invalid-config", f"bad w_list: {exc}") from exc
        else:
            w_list = (0.5, 1.0, 2.0)
        try:
            extra = {
                "w_list": w_list,
                "mu_i_steps": pick(args.mu_i_steps, doc, "mu_i_steps", 101, integral=True),
            }
        except (TypeError, ValueError) as exc:
            raise _CliError("invalid-config", f"bad mu_i_steps: {exc}") from exc
    elif args.command == "verify":
        if args.only is not None:
            only = tuple(tok for item in args.only for tok in item.split(",") if tok)
        elif "only" in doc:
            raw = doc["only"]
            items = raw if isinstance(raw, list) else [raw]
            only = tuple(_config_string("only", x) for x in items)
        else:
            only = None
        extra = {"only": only}
    elif args.command == "empirical":
        extra = {"input_path": args.input}

    return RunConfig(
        command=args.command, params=params, solver=solver, out=out, seed=seed, **extra
    )


def _fmt(x: float) -> str:
    """A double with all 17 significant digits (parses back bit-exactly)."""
    return format(x, ".17g")


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8", newline="")


def _cmd_solve(config: RunConfig) -> int:
    params = config.params
    on_locus = abs(params.mu_v - symmetry_locus_mu_v(params.w, params.mu_i)) <= LOCUS_TOL
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve = solve_symmetric if on_locus else solve_asymmetric
        result = solve(params, config.solver)
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    pp = result.platforms
    lines = [
        f"kind: {result.kind}",
        f"p_L: {_fmt(pp.p_L)}",
        f"p_R: {_fmt(pp.p_R)}",
        f"delta: {_fmt(result.delta)}",
        f"pr_L: {_fmt(result.pr_L)}",
        f"foc_residual_L: {_fmt(result.foc_residual_L)}",
        f"foc_residual_R: {_fmt(result.foc_residual_R)}",
        f"soc_L: {_fmt(result.soc_L)}",
        f"soc_R: {_fmt(result.soc_R)}",
        f"iterations: {result.iterations}",
        f"symmetric: {_fmt_bool(abs(pp.p_L + pp.p_R - 1.0) < 1e-6)}",
        f"certified: {_fmt_bool(result.certified)}",
    ]
    _emit("\n".join(lines) + "\n", config.out)
    return 0 if result.certified else 1


def _cmd_sweep(config: RunConfig) -> int:
    step = (config.w_max - config.w_min) / (config.w_steps - 1)
    grid = [config.w_min + i * step for i in range(config.w_steps)]
    rows = sweep_w(grid, config.params, config.solver, mode=config.mode)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    for r in rows:
        writer.writerow(
            [_fmt(getattr(r, c)) for c in _SWEEP_COLUMNS[:-1]] + [_fmt_bool(r.certified)]
        )
    _emit(buf.getvalue(), config.out)
    n_certified = sum(1 for r in rows if r.certified)
    print(f"certified {n_certified}/{len(rows)} rows", file=sys.stderr)
    return 0 if n_certified >= 0.95 * len(rows) else 1


def _cmd_locus(config: RunConfig) -> int:
    denom = config.mu_i_steps - 1
    mu_grid = [i / denom for i in range(config.mu_i_steps)]
    records = [
        (w, mu_i, symmetry_locus_mu_v(w, mu_i))
        for w in config.w_list
        for mu_i in mu_grid
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["w", "mu_i", "mu_v"])
    for w, mu_i, mu_v in records:
        writer.writerow([_fmt(w), _fmt(mu_i), _fmt(mu_v)])
    _emit(buf.getvalue(), config.out)

    # spot-check the locus is what it claims: a symmetric profile solves
    picks = sorted({round(k * (len(records) - 1) / 9) for k in range(10)})
    worst = 0.0
    for k in picks:
        w, mu_i, mu_v = records[k]
        probe = ModelParams(
            w=w, V=config.params.V, sigma_i=config.params.sigma_i,
            sigma_v=config.params.sigma_v, mu_i=mu_i, mu_v=mu_v,
        )
        res = solve_asymmetric(probe, config.solver)
        worst = max(worst, abs(res.platforms.p_L + res.platforms.p_R - 1.0))
    print(
        f"subsample symmetry check: max |p_L+p_R-1| = {worst:.3e} "
        f"over {len(picks)} solves",
        file=sys.stderr,
    )
    return 0 if worst < 1e-6 else 1


def _cmd_verify(config: RunConfig) -> int:
    try:
        results = run_checks(only=config.only, seed=config.seed)
    except ValueError as exc:
        raise _CliError("invalid-args", str(exc)) from exc
    lines = [
        f"{r.check_id}: {'PASS' if r.passed else 'FAIL'} ({r.duration_s:.2f}s) {r.detail}"
        for r in results
    ]
    n_pass = sum(1 for r in results if r.passed)
    lines.append(
        f"{'PASS' if n_pass == len(results) else 'FAIL'}: "
        f"{n_pass}/{len(results)} checks passed"
    )
    _emit("\n".join(lines) + "\n", config.out)
    return 0 if n_pass == len(results) else 1


def _cmd_empirical(config: RunConfig) -> int:
    path = config.input_path
    assert path is not None  # argparse enforces the positional
    try:
        fh = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise _CliError("invalid-input", f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        present = reader.fieldnames or []
        for col in ("year", "party", "score"):
            if col not in present:
                raise _CliError("invalid-input", f"missing column '{col}' in {path}")
        by_year: dict[int, dict[str, list[float]]] = {}
        for lineno, rec in enumerate(reader, start=2):
            try:
                year = int(rec["year"])
                party = (rec["party"] or "").strip()
                score = float(rec["score"])
            except (TypeError, ValueError) as exc:
                raise _CliError("invalid-input", f"{path}:{lineno}: bad row: {exc}") from exc
            if party not in ("L", "R"):
                raise _CliError(
                    "invalid-input",
                    f"{path}:{lineno}: party must be 'L' or 'R', got {party!r}",
                )
            by_year.setdefault(year, {"L": [], "R": []})[party].append(score)

    records = []
    for year in sorted(by_year):
        scores = by_year[year]
        if not scores["L"] or not scores["R"]:
            absent = "L" if not scores["L"] else "R"
            print(f"warning: year {year} has no party-{absent} members; skipped", file=sys.stderr)
            continue
        records.append(PolarizationRecord(year, fmean(scores["R"]) - fmean(scores["L"])))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["year", "polarization"])
    for rec_out in records:
        writer.writerow([str(rec_out.year), _fmt(rec_out.polarization)])
    _emit(buf.getvalue(), config.out)
    return 0


_HANDLERS: dict[str, Callable[[RunConfig], int]] = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "locus": _cmd_locus,
    "verify": _cmd_verify,
    "empirical": _cmd_empirical,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the process exit status instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own reason (or help)
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        config = _make_config(args)
        return _HANDLERS[config.command](config)
    except _CliError as exc:
        print(f"error: {exc.slug}: {exc}", file=sys.stderr)
        return exc.code
    except (InvalidParamsError, DomainError) as exc:
        print(f"error: invalid-params: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: no-convergence: {exc}", file=sys.stderr)
        return 3
    except PolarsolveError as exc:
        print(f"error: invalid-params: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """Console-script hook: exit the process with :func:`main`'s status."""
    raise SystemExit(main())
