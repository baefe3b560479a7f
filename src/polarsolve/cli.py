"""Command-line surface.

Five subcommands::

    polarsolve solve      solve one instance, print the certified result
    polarsolve sweep      equilibria along a w grid, CSV
    polarsolve locus      the symmetry locus mu_v = w(1-2 mu_i), CSV
    polarsolve verify     run the named verification checks
    polarsolve empirical  per-year polarization from legislator scores

Each takes ``--config``, ``--out`` and only the flags it reads (``--seed``
is ``verify``'s); an unused or abbreviated flag is ``invalid-args``.

Each setting in ``_SETTINGS`` takes its flag if given, else its ``--config``
JSON value, which must be of the setting's JSON kind, else its default.
Every error path exits nonzero after a single machine-parsable line of
the form ``error: <slug>: <reason>``, the last on stderr (slugs:
``invalid-args``, ``invalid-params``, ``invalid-config``, ``invalid-input``,
``no-convergence``).  Exit codes: 2 for anything invalid, 3 for solver
non-convergence, 1 for a result that is computable but fails its
certification or check threshold.  :func:`main` prints each distinct
warning that a command raises once on stderr, as ``warning: <message>``
(``SinglePeakednessWarning`` below the single-peak bound, whatever the
command), before that command's error line if it fails.

CSV output is comma-delimited with a header row, 17-significant-digit
floats (lossless double round-trip), ``true``/``false`` booleans,
``nan`` for unavailable values, LF line endings, UTF-8.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import warnings
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Callable, NoReturn, Sequence

from .analysis import sweep_w, symmetry_locus_mu_v
from .errors import InvalidParamsError, PolarsolveError, SolverError
from .model import ModelParams
from .solver import LOCUS_TOL, SolverConfig, solve_asymmetric, solve_symmetric

__all__ = ["RunConfig", "PolarizationRecord", "main", "entrypoint"]

#: The verify battery's default seed; :mod:`polarsolve.verify` re-exports it.
#: It lives here because the CLI loads that module, and numpy, only for ``verify``.
DEFAULT_SEED = 1729

_SWEEP_COLUMNS = (
    "w", "p_L", "p_R", "delta", "pr_L",
    "dpL_dw_analytic", "dpL_dw_fd", "soc_L", "soc_R", "certified",
)

#: The model parameters, with the default that applies where neither a flag
#: nor the config file sets one (ModelParams has no default for w) and the
#: flag's help.
_PARAMS = {
    "w": (1.0, "policy-motivation weight"),
    "V": (1.0, "office rent"),
    "sigma_i": (1.0, "ideological-bliss std dev"),
    "sigma_v": (1.0, "valence-shock std dev"),
    "mu_i": (0.5, "mean ideological bliss"),
    "mu_v": (0.0, "mean valence shock"),
}


def _number(value: object) -> bool:
    """A JSON number that converts to a double; a bool or a string is none."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _string(value: object) -> bool:
    return isinstance(value, str)


#: The JSON kinds of config values: what a value must be, the test it must
#: pass, and the conversion that a config value and a flag's value go through.
_KINDS: dict[str, tuple[str, Callable[[object], bool], Callable]] = {
    "number": ("a number", _number, float),
    "integer": (
        "an integer", lambda v: type(v) is int or type(v) is float and v.is_integer(), int
    ),
    "string": ("a string", _string, str),
    "path": ("a string", _string, Path),
    "numbers": (
        "a list of numbers",
        lambda v: type(v) is list and all(map(_number, v)),
        lambda v: tuple(map(float, v)),
    ),
    "strings": (
        "a string or a list of strings",
        lambda v: _string(v) or type(v) is list and all(map(_string, v)),
        lambda v: (v,) if _string(v) else tuple(v),
    ),
}

#: Every setting, by name, with its config section (None for the top level)
#: and JSON kind.  The flag of the same name (``--w-list`` for ``w_list``)
#: overrides the config file.
_SETTINGS: dict[str, tuple[str | None, str]] = {
    **{key: ("params", "number") for key in _PARAMS},
    **{
        f.name: ("solver", "integer" if type(f.default) is int else "number")
        for f in fields(SolverConfig)
    },
    "out": (None, "path"),
    "seed": (None, "integer"),
    "w_min": (None, "number"),
    "w_max": (None, "number"),
    "w_steps": (None, "integer"),
    "mode": (None, "string"),
    "w_list": (None, "numbers"),
    "mu_i_steps": (None, "integer"),
    "only": (None, "strings"),
}


class _CliError(Exception):
    """Bad input, raised as ``_CliError(slug, reason)``; :func:`main` prints
    ``error: <slug>: <reason>`` and returns 2."""


@dataclass(frozen=True, slots=True)
class RunConfig:
    """One fully resolved invocation: model + solver + command fields.

    A field that neither a flag nor the config file sets keeps its default
    below (``out`` None writes to stdout).
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
        if self.command not in _HANDLERS:
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
    run = {f.name: f.default for f in fields(RunConfig)}
    parser = _ArgumentParser(
        prog="polarsolve",
        description="Equilibrium platforms for two-party spatial competition "
        "under ideological and valence uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, model: Sequence[str], summary: str) -> _ArgumentParser:
        """A subcommand's parser with the model flags it reads (the config
        file's ``params`` stay shared) and ``--config`` and ``--out``.
        Abbreviations are off: ``locus --w`` must not read as ``--w-list``."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        grp = p.add_argument_group("model parameters")
        for key in model:
            default, text = _PARAMS[key]
            flag = "--" + key.replace("_", "-")
            grp.add_argument(flag, type=float, help=f"{text} (default {default:g})")
        grp = p.add_argument_group("run control")
        grp.add_argument(
            "--config", type=Path, metavar="PATH", help="JSON config (flags override it)"
        )
        grp.add_argument("--out", type=Path, metavar="PATH", help="output file (default: stdout)")
        return p

    command("solve", list(_PARAMS), "solve one instance and print the certified equilibrium")

    # the grid sets w
    p = command(
        "sweep", ["V", "sigma_i", "sigma_v", "mu_i", "mu_v"], "equilibria along a w grid (CSV)"
    )
    p.add_argument("--w-min", type=float, help=f"grid start (default {run['w_min']:g})")
    p.add_argument("--w-max", type=float, help=f"grid end (default {run['w_max']:g})")
    p.add_argument("--w-steps", type=int, help=f"number of grid points (default {run['w_steps']})")
    p.add_argument(
        "--mode", choices=("symmetric", "asymmetric"),
        help=f"solver per row (default {run['mode']})",
    )

    # each row sets w, mu_i and mu_v
    p = command(
        "locus", ["V", "sigma_i", "sigma_v"],
        "symmetry locus mu_v = w(1-2*mu_i) over a mu_i grid (CSV)",
    )
    w_list = ",".join(f"{w:g}" for w in run["w_list"])
    p.add_argument(
        "--w-list", type=_w_list_flag, metavar="W1,W2,...", help=f"w values (default {w_list})"
    )
    p.add_argument(
        "--mu-i-steps", type=int, help=f"mu_i grid points on [0, 1] (default {run['mu_i_steps']})"
    )

    p = command("verify", [], "run the named verification checks")
    p.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
    p.add_argument(
        "--only", action="extend", metavar="CHECK",
        type=lambda text: [tok for tok in text.split(",") if tok],
        help="check id to run (repeatable or comma-separated; default all)",
    )

    p = command(
        "empirical", [],
        "per-year polarization (mean R - mean L) from a year,party,score CSV",
    )
    p.add_argument("input", type=Path, help="CSV with header year,party,score; party in {L, R}")
    return parser


def _read_config_file(path: Path | None) -> dict[str | None, dict]:
    """The config file's top level (key None) and its sections, each checked
    for unknown keys; empty tables when there is no file."""
    if path is None:
        return {None: {}, "params": {}, "solver": {}}
    import json  # only --config reads JSON

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
    tables = {None: doc, "params": doc.get("params", {}), "solver": doc.get("solver", {})}
    for section, table in tables.items():
        if not isinstance(table, dict):
            raise _CliError("invalid-config", f"'{section}' must be a JSON object")
        allowed = {key for key, (where, _) in _SETTINGS.items() if where == section}
        if section is None:
            allowed |= {"params", "solver"}
        unknown = sorted(set(table) - allowed)
        if unknown:
            raise _CliError(
                "invalid-config", f"unknown {section or 'config'} key(s): {', '.join(unknown)}"
            )
    return tables


def _w_list_flag(text: str) -> list[float]:
    """``--w-list``'s values; a bad token raises :class:`_CliError`, which argparse
    passes through (it rewords only ArgumentTypeError, TypeError and ValueError)."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _CliError("invalid-args", f"--w-list: {exc}") from exc


def _make_config(args: argparse.Namespace) -> RunConfig:
    tables = _read_config_file(args.config)
    chosen: dict[str | None, dict] = {section: {} for section in tables}
    for key, (section, kind) in _SETTINGS.items():
        what, valid, convert = _KINDS[kind]
        value = getattr(args, key, None)
        if value is None:
            if key not in tables[section]:
                continue
            value = tables[section][key]
            if not valid(value):
                raise _CliError(
                    "invalid-config", f"bad config value: {key} must be {what}, got {value!r}"
                )
        chosen[section][key] = convert(value)
    params = {key: chosen["params"].get(key, default) for key, (default, _) in _PARAMS.items()}
    return RunConfig(
        command=args.command,
        params=ModelParams(**params),
        solver=SolverConfig(**chosen["solver"]),
        input_path=getattr(args, "input", None),
        **chosen[None],
    )


def _fmt(x: object) -> str:
    """A value as the output shows it: a float with all 17 significant digits
    (it parses back bit-exactly), a bool as ``true``/``false``."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        out.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise _CliError("invalid-args", f"cannot write {out}: {exc}") from exc


def _emit_csv(header: Sequence[str], rows: list[Sequence[object]], out: Path | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(x) for x in row] for row in rows)
    _emit(buf.getvalue(), out)


def _cmd_solve(config: RunConfig) -> int:
    params = config.params
    on_locus = abs(params.mu_v - symmetry_locus_mu_v(params.w, params.mu_i)) <= LOCUS_TOL
    result = (solve_symmetric if on_locus else solve_asymmetric)(params, config.solver)
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
        f"symmetric: {_fmt(abs(pp.p_L + pp.p_R - 1.0) < 1e-6)}",
        f"certified: {_fmt(result.certified)}",
    ]
    _emit("\n".join(lines) + "\n", config.out)
    return 0 if result.certified else 1


def _cmd_sweep(config: RunConfig) -> int:
    step = (config.w_max - config.w_min) / (config.w_steps - 1)
    grid = [config.w_min + i * step for i in range(config.w_steps)]
    rows = sweep_w(grid, config.params, config.solver, mode=config.mode)
    _emit_csv(_SWEEP_COLUMNS, [[getattr(r, c) for c in _SWEEP_COLUMNS] for r in rows], config.out)
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
    _emit_csv(("w", "mu_i", "mu_v"), records, config.out)

    # spot-check the locus is what it claims: a symmetric profile solves
    picks = sorted({round(k * (len(records) - 1) / 9) for k in range(10)})
    worst = 0.0
    for k in picks:
        w, mu_i, mu_v = records[k]
        probe = replace(config.params, w=w, mu_i=mu_i, mu_v=mu_v)
        res = solve_asymmetric(probe, config.solver)
        worst = max(worst, abs(res.platforms.p_L + res.platforms.p_R - 1.0))
    print(
        f"subsample symmetry check: max |p_L+p_R-1| = {worst:.3e} "
        f"over {len(picks)} solves",
        file=sys.stderr,
    )
    return 0 if worst < 1e-6 else 1


def _cmd_verify(config: RunConfig) -> int:
    from .verify import run_checks

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
            if not math.isfinite(score):
                raise _CliError(
                    "invalid-input", f"{path}:{lineno}: score must be finite, got {rec['score']!r}"
                )
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
        # statistics.fmean's value, without importing statistics
        mean = {party: math.fsum(xs) / len(xs) for party, xs in scores.items()}
        records.append(PolarizationRecord(year, mean["R"] - mean["L"]))

    _emit_csv(("year", "polarization"), [astuple(rec) for rec in records], config.out)
    return 0


_HANDLERS: dict[str, Callable[[RunConfig], int]] = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "locus": _cmd_locus,
    "verify": _cmd_verify,
    "empirical": _cmd_empirical,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the process exit status instead of raising.
    Each distinct warning the command raises is printed once on stderr as
    ``warning: <message>``, before the error line if the command fails."""
    try:
        config = _make_config(_build_parser().parse_args(argv))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return _HANDLERS[config.command](config)
            finally:
                for message in dict.fromkeys(str(item.message) for item in caught):
                    print(f"warning: {message}", file=sys.stderr)
    except SystemExit as exc:  # argparse printed its own reason (or help)
        return exc.code if isinstance(exc.code, int) else 0
    except _CliError as exc:
        print("error: %s: %s" % exc.args, file=sys.stderr)
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
