"""Command-line front end: one table of commands, one dispatch path.

Every command is a runner plus the fields it reads (``COMMANDS``).  A request
becomes a document of those fields: ``orbits``, ``markers``, ``towers``,
``periodic`` and ``verify-all`` build it from their flags, one flag per field,
with paths relative to the working directory; ``norm`` and ``approx`` load it
from ``--scenario`` and overlay ``--tol``/``--N``; ``run_scenario`` (and so
``verify-all``) loads it from a scenario file, whose relative paths resolve
against the file's directory.  A report echoes its input as ``scenario``:
``norm`` and ``approx`` by reference, the scenario path as given and the
sha256 of the file's bytes, plus the flags that overrode the file; the
others their checked fields.  Every document passes one field check before
its runner runs: an unknown field, a missing required field or a value of the
wrong kind is a ``ScenarioError`` naming the field, reported as a structured
error with exit status 2.  ``verify-all`` reports such an error as the failed
summary row of its scenario, runs the others, and exits 2.

Reports are JSON with sorted keys and fixed 17-significant-digit float
formatting, so identical runs produce byte-identical files.  A ``towers``
report's rung tables are held as columns (``_Columns``: the points in label
order and their values) and written by the same object writer as a dict,
to the same bytes.  Each row is a ``Check``, decided by the library object
that measured it or else by the default rule, measured <= bound; the exit
status is 0 exactly when every row passes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .approx import run_approximation
from .cstar import (
    CrossedElement,
    holonomy,
    norm,
    periodic_embedding,
    primitive_spectrum,
)
from .dynsys import Check, FiniteDynamicalSystem, load_system, quotient_report
from .markers import greedy_markers
from .towers import TowerFamily, as_fraction, build_tower_family, verify_tower

DEFAULT_SEED = 20260809


class ScenarioError(ValueError):
    """A scenario file is malformed or references missing inputs."""


# what malformed or missing input raises: a structured error and exit 2
_INPUT_ERRORS = (ScenarioError, ValueError, OSError)


# ---------------------------------------------------------------------------
# deterministic JSON


_escape = json.encoder.encode_basestring_ascii  # what json.dumps(str) calls


class _Columns:
    """A JSON object of floats held as columns: ``keys[x]`` is the key text
    ``"label": `` of point x, ``points`` the points in key order and
    ``values`` their floats.  It is written like the dict of those labels and
    values, by the same object writer."""

    __slots__ = ("keys", "points", "values")

    def __init__(self, keys: np.ndarray, points: np.ndarray, values: np.ndarray):
        self.keys, self.points, self.values = keys, points, values


def _key_texts(labels) -> np.ndarray:
    """The key text ``"label": `` of each label, as an object array."""
    return np.array([_escape(lab) + ": " for lab in labels], dtype=object)


def _float_texts(values: np.ndarray) -> list[str]:
    """The ``.17g`` text of each float64, formatted once per distinct value.

    Values are told apart by their bits, not by ==, so 0.0 and -0.0 (which
    compare equal) keep their own texts; every NaN writes as ``nan``."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([f"{v:.17g}" for v in bits.view(np.float64).tolist()], dtype=object)[inverse].tolist()


def _object(keys, texts, pad: str) -> str:
    """The JSON object whose line starts with ``pad``, from its key texts
    (each ending in ``": "``) and its value texts, in order."""
    if not keys:
        return "{}"
    inner = pad + "  "
    # key, value and separator texts interleaved: one join, no string per entry
    parts = [",\n" + inner] * (3 * len(keys))
    parts[0] = "{\n" + inner
    parts[1::3] = keys
    parts[2::3] = texts
    parts.append(f"\n{pad}}}")
    return "".join(parts)


def _texts(values, pad: str) -> list[str]:
    """The JSON text of each value; when the values share one exact type it
    is checked once, for the whole container."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        return _float_texts(np.array(values, dtype=np.float64))
    if kind is str:
        return list(map(_escape, values))
    return [_text(v, pad) for v in values]


def _text(obj, pad: str) -> str:
    """The JSON text of one value whose line starts with ``pad``."""
    kind = type(obj)
    if kind is float:
        return f"{obj:.17g}"
    if kind is str:
        return _escape(obj)
    if kind is _Columns:
        return _object(obj.keys[obj.points].tolist(), _float_texts(obj.values), pad)
    if isinstance(obj, dict):
        keys = sorted(obj)
        names = map(_escape, keys if set(map(type, keys)) == {str} else map(str, keys))
        return _object([n + ": " for n in names], _texts(list(map(obj.__getitem__, keys)), pad + "  "), pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[\n" + inner + (",\n" + inner).join(_texts(obj, inner)) + f"\n{pad}]"
    if kind is int:
        return str(obj)
    # numpy scalars, complex numbers and subclasses
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, complex):
        return _text([obj.real, obj.imag], pad)
    raise TypeError(f"cannot serialize {type(obj)}")


def emit_report(report: dict, path: str | Path | None) -> str:
    """Serialize a report deterministically; write it if a path is given."""
    text = _text(report, "") + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _row(check: Check) -> dict:
    return {"name": check.name, "measured": float(check.measured), "bound": float(check.bound), "pass": check.passed}


def _error(exc: Exception) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


def _report_shell(command: str, scenario: dict) -> dict:
    return {
        "tool": {"name": "rokhlin", "version": __version__},
        "command": command,
        "scenario": scenario,
        "assertions": [],
    }


def _read_system(path: str | Path) -> FiniteDynamicalSystem:
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"system file not found: {p}")
    return load_system(p.read_text())


def _point(sys: FiniteDynamicalSystem, label) -> int:
    """The index of a point label named by a scenario."""
    if label not in sys.index:
        raise ScenarioError(f"unknown point label {label!r}")
    return sys.index[label]


def _finite_number(value, where: str) -> float:
    """A finite JSON number (not a bool)."""
    try:
        x = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:
        x = math.nan
    if not math.isfinite(x):
        raise ScenarioError(f"{where} must be a finite number, got {value!r}")
    return x


def _finite_pair(value, where: str) -> complex:
    """A [re, im] literal of two finite JSON numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioError(f"{where} must be a pair of finite numbers [re, im], got {value!r}")
    return complex(_finite_number(value[0], where), _finite_number(value[1], where))


def _table_values(sys: FiniteDynamicalSystem, table: dict) -> tuple[np.ndarray, np.ndarray] | None:
    """The point indices and complex values of a coefficients table whose
    every entry passes the checks, read as arrays; None when the table is
    empty or some entry fails a check (the per-entry loop then names the
    first)."""
    pairs = list(table.values())
    if not (set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int, float}):
        return None
    try:
        points = np.fromiter(map(sys.index.__getitem__, table), np.intp, len(table))
        parts = np.array(pairs, dtype=float)
    except (KeyError, OverflowError):
        return None
    if not np.isfinite(parts).all():
        return None
    values = np.empty(len(pairs), dtype=np.complex128)
    values.real, values.imag = parts[:, 0], parts[:, 1]
    return points, values


def parse_element(sys: FiniteDynamicalSystem, literal) -> CrossedElement:
    """Element literal: list of band entries {power, coefficients|constant}.

    Each entry has an integer ``power`` and exactly one of ``coefficients``
    and ``constant``, and no other key.  ``coefficients`` maps point labels
    to [re, im] pairs (missing points are zero); ``constant`` applies one
    [re, im] value to every point.  Every value must be a pair of finite
    numbers.
    """
    if not isinstance(literal, list):
        raise ScenarioError("element literal must be a list of band entries")
    coeffs: dict[int, np.ndarray] = {}
    for entry in literal:
        if not isinstance(entry, dict) or not _is_int(entry.get("power")) or abs(entry["power"]) >= 2**62:
            raise ScenarioError(f"bad band entry {entry!r}: 'power' must be an integer of magnitude below 2^62")
        i = entry["power"]
        for key in entry:
            if key not in ("power", "coefficients", "constant"):
                raise ScenarioError(f"band entry at power {i} has unknown key {key!r}")
        if "constant" in entry and "coefficients" in entry:
            raise ScenarioError(f"band entry at power {i} has both 'constant' and 'coefficients'")
        arr = coeffs.setdefault(i, np.zeros(sys.n, dtype=np.complex128))
        if "constant" in entry:
            arr += _finite_pair(entry["constant"], f"constant at power {i}")
        elif isinstance(entry.get("coefficients"), dict):
            table = entry["coefficients"]
            checked = _table_values(sys, table)
            if checked is not None:
                points, values = checked
                arr[points] += values  # labels are distinct, so no point repeats
            else:
                for lab, value in table.items():
                    arr[_point(sys, lab)] += _finite_pair(value, f"coefficient of {lab!r} at power {i}")
        else:
            raise ScenarioError(f"band entry {entry!r} needs 'coefficients' or 'constant'")
    return CrossedElement(sys, coeffs)


def _ratio_float(value) -> float:
    """A number or fraction string as a float."""
    return float(as_fraction(value)) if isinstance(value, str) else float(value)


# ---------------------------------------------------------------------------
# runners: each takes the checked fields and the scenario file's echo (None
# for a document built from flags), and returns a report dict whose
# "assertions" are Checks; its docstring is the command's help line


def run_orbits(args: dict, source: dict | None) -> dict:
    """orbit decomposition and quotient summary"""
    sys = _read_system(args["system"])
    rep = _report_shell("orbits", args)
    orbs = sys.orbits()
    q = quotient_report(sys)
    rep["orbits"] = {
        "count": len(orbs.cycles),
        "lengths": sorted(c.length for c in orbs.cycles),
        "cycles": [
            {"base": sys.labels[c.base], "length": c.length} for c in orbs.cycles
        ],
    }
    rep["quotient"] = {
        "rows": list(q.rows),
        "declared_dim": q.declared_dim,
        "bound_plus_one": q.bound_plus_one,
    }
    covered = sum(c.length for c in orbs.cycles)
    rep["assertions"].append(Check.at_most("orbit_partition_defect", abs(covered - sys.n), 0))
    return rep


def run_markers(args: dict, source: dict | None) -> dict:
    """greedy marker certificate"""
    sys = _read_system(args["system"])
    rep = _report_shell("markers", args)
    d = args["d"] if args["d"] is not None else sys.declared_dim
    cert = greedy_markers(sys, args["m"], np.arange(sys.n), d)
    rep["markers"] = {
        "positions": list(map(sys.labels.__getitem__, cert.markers.tolist())),
        "count": len(cert.markers),
        "m": cert.m,
        "d": cert.d,
        "window_length": cert.window_length,
        "flags": {"disjoint": cert.flag_disjoint, "cover": cert.flag_cover},
        "witnesses": {
            "disjoint": list(cert.witness_disjoint) if cert.witness_disjoint else None,
            "cover": sys.labels[cert.witness_cover] if cert.witness_cover is not None else None,
        },
    }
    rep["assertions"] += cert.checks
    return rep


def _rung_values(family: TowerFamily, l: int, keys: np.ndarray) -> dict:
    """Nonzero tower values of level l keyed by rung, then by point label.

    A rung's table is columns (``_Columns``), not a dict: its points in index
    order, which is label order, and their values num / den.  ``_text``
    writes it through the same object writer as a dict, from ``keys``, every
    point's key text computed once per system, and one text per distinct
    value.
    """
    out = {}
    for col in range(2 * family.m + 1):
        nz = np.flatnonzero(family.num[l, :, col])
        if nz.size:
            points = family.points[l, nz, col]
            order = np.argsort(points)
            out[str(col - family.m)] = _Columns(keys, points[order], family.num[l, nz[order], col] / family.den)
    return out


def run_towers(args: dict, source: dict | None) -> dict:
    """tower pipeline and verification"""
    sys = _read_system(args["system"])
    d = args["d"] if args["d"] is not None else sys.declared_dim
    eps = str(args["epsilon"])
    rep = _report_shell("towers", dict(args, d=d, epsilon=eps))
    family = build_tower_family(sys, d, args["k"], args["m"], eps, np.arange(sys.n))
    tower = verify_tower(family)
    keys = _key_texts(sys.labels)
    rep["towers"] = {
        "levels": family.levels,
        "k_prime": family.k_prime,
        "supports": [list(map(sys.labels.__getitem__, s)) for s in family.points[:, :, family.m].tolist()],
        "step_bound": tower.step_bound,
        "step_measured": tower.step_measured,
        "conservation_exact": tower.conservation_exact,
        "values": [_rung_values(family, l, keys) for l in range(family.levels)],
    }
    rep["assertions"] += tower.checks
    return rep


def run_periodic(args: dict, source: dict | None) -> dict:
    """periodic embedding and spectrum checks"""
    sys = _read_system(args["system"])
    rep = _report_shell("periodic", args)
    emb = periodic_embedding(sys, args["lambda_grid"])
    rng = np.random.default_rng(args["seed"])
    f = rng.standard_normal(sys.n)
    spec = primitive_spectrum(sys)
    rep["periodic"] = {
        "period": emb.n,
        "spectrum": list(spec.rows),
        "max_irreducible_dim": spec.max_irreducible_dim,
    }
    rep["assertions"].append(Check.at_most("unitarity_residual", emb.unitarity_residual(), 1e-12))
    rep["assertions"].append(Check.at_most("covariance_residual", emb.covariance_residual(f), 1e-12))
    a = CrossedElement(sys, {i: rng.standard_normal(sys.n) for i in (-2, -1, 0, 1, 2)})
    rep["assertions"].append(Check.at_most("expectation_square_residual", emb.expectation_residual(a), 1e-9))
    worst = max([0.0] + [holonomy(np.exp(2j * np.pi * rng.random(c.length)))[1] for c in sys.orbits().cycles])
    rep["assertions"].append(Check.at_most("holonomy_power_residual", worst, 1e-10))
    rep["assertions"].append(Check.at_most("irreducible_dim_excess", spec.max_irreducible_dim - emb.n, 0))
    return rep


def run_norm(args: dict, source: dict | None) -> dict:
    """certified norm of an element scenario"""
    for name, bound in args["expect"].items():
        if name not in ("value_at_most", "value_at_least"):
            raise ScenarioError(f"unknown norm expectation {name!r}")
        _finite_number(bound, f"expect {name!r}")
    sys = _read_system(args["system"])
    rep = _report_shell("norm", source)
    a = parse_element(sys, args["element"])
    result = norm(a, _ratio_float(args["tol"]))
    rep["norm"] = {
        "value": result.value,
        "upper": result.upper,
        "tol": result.tol,
        "grids": result.grids,
        "evaluations": result.evaluations,
        "per_orbit": {
            lab: {"value": v, "argmax": [lam.real, lam.imag]}
            for lab, (v, lam) in result.per_orbit.items()
        },
        "coefficient_bound": a.coefficient_bound(),
    }
    # value + tol is an upper bound only where every solved point settled
    rep["assertions"].append(Check.at_most("lanczos_unconverged", result.unconverged, 0))
    for name, bound in args["expect"].items():
        if name == "value_at_most":
            rep["assertions"].append(Check.at_most("norm_value", result.value, float(bound)))
        else:
            rep["assertions"].append(Check.at_most("norm_lower_defect", float(bound) - result.upper, 0.0))
    return rep


def run_approx(args: dict, source: dict | None) -> dict:
    """full approximation scenario"""
    sys = _read_system(args["system"])
    rep = _report_shell("approx", source)
    F = [parse_element(sys, lit) for lit in args["elements"]]
    e_values = None
    if args["e"] is not None:
        e_values = np.zeros(sys.n)
        for lab, v in args["e"].items():
            e_values[_point(sys, lab)] = _finite_number(v, f"e at {lab!r}")
    run = run_approximation(
        sys, F, args["epsilon"], N_override=args["N"], e_values=e_values, norm_tol=_ratio_float(args["tol"])
    )
    fz = run.factorization
    p = run.params
    long_size = int(p.split.long.sum())
    rep["parameters"] = {
        "d": p.d, "k": p.k, "m": p.m, "N": p.N,
        "eps": float(p.eps), "eps_prime": float(p.eps_prime),
        "short_part_size": sys.n - long_size,
        "long_part_size": long_size,
    }
    rep["ledger"] = {
        "quotient_colors_declared": fz.ledger.quotient_colors_declared,
        "quotient_colors_actual": fz.ledger.quotient_colors_actual,
        "ideal_colors": fz.ledger.ideal_colors,
        "total_declared": fz.ledger.total_declared,
        "closed_form_bound": fz.ledger.closed_form_bound,
        "additive_bound": fz.ledger.additive_bound,
    }
    rep["assertions"] += run.checks
    return rep


def run_suite(args: dict, source: dict | None) -> dict:
    """run every scenario in a suite"""
    suite_path = Path(args["suite"])
    if not suite_path.exists():
        raise ScenarioError(f"suite file not found: {suite_path}")
    suite = json.loads(suite_path.read_text())
    if not isinstance(suite, dict) or not isinstance(suite.get("scenarios"), list):
        raise ScenarioError("suite must be an object with a 'scenarios' array")
    for name in suite:
        if name != "scenarios":
            raise ScenarioError(f"suite has unknown field {name!r}")
    for rel in suite["scenarios"]:
        if not isinstance(rel, str):
            raise ScenarioError(f"suite 'scenarios' entries must be paths, got {rel!r}")
    rep = _report_shell("verify-all", args)
    summary = []
    for rel in suite["scenarios"]:
        try:
            sub = run_scenario(suite_path.parent / rel)
        except _INPUT_ERRORS as exc:  # fails this row only; main exits 2
            entry, failed = {"assertions": 0, "error": _error(exc)}, 1
        else:
            entry, failed = {"assertions": len(sub["assertions"])}, int(not all(a["pass"] for a in sub["assertions"]))
        row = Check.at_most(f"scenario:{rel}", failed, 0)
        summary.append({"scenario": rel, "pass": row.passed, **entry})
        rep["assertions"].append(row)
    rep["summary"] = summary
    return rep


# ---------------------------------------------------------------------------
# the command table and its one field check


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_ratio(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return False
    try:
        return math.isfinite(_ratio_float(value))
    except (ValueError, ZeroDivisionError, OverflowError):
        return False


# kind -> (test, what a value of that kind must do)
_KINDS = {
    "path": (lambda v: isinstance(v, str), "be a path"),
    "count": (lambda v: _is_int(v) and v >= 0, "be an integer >= 0"),
    "positive": (lambda v: _is_int(v) and v >= 1, "be an integer >= 1"),
    "ratio": (_is_ratio, "be a number or a fraction string with a finite value"),
    "list": (lambda v: isinstance(v, list), "be a list"),
    "object": (lambda v: isinstance(v, dict), "be an object"),
    "labels": (lambda v: isinstance(v, dict), "map point labels to numbers"),
}
REQUIRED = object()  # the default of a field that must be given

# command -> (runner, {field: (kind, default)}); a field whose default is None
# also accepts an explicit null
COMMANDS = {
    "orbits": (run_orbits, {"system": ("path", REQUIRED)}),
    "markers": (run_markers, {
        "system": ("path", REQUIRED), "m": ("positive", REQUIRED), "d": ("count", None),
    }),
    "towers": (run_towers, {
        "system": ("path", REQUIRED), "d": ("count", None), "k": ("count", REQUIRED),
        "m": ("positive", REQUIRED), "epsilon": ("ratio", REQUIRED),
    }),
    "periodic": (run_periodic, {
        "system": ("path", REQUIRED), "lambda_grid": ("positive", 64), "seed": ("count", DEFAULT_SEED),
    }),
    "norm": (run_norm, {
        "system": ("path", REQUIRED), "element": ("list", REQUIRED), "tol": ("ratio", 1e-3),
        "expect": ("object", {}),
    }),
    "approx": (run_approx, {
        "system": ("path", REQUIRED), "elements": ("list", REQUIRED), "epsilon": ("ratio", REQUIRED),
        "tol": ("ratio", 1e-3), "N": ("positive", None), "e": ("labels", None),
    }),
    "verify-all": (run_suite, {"suite": ("path", REQUIRED)}),
}
# commands that read their document from --scenario: the flags that override it
_SCENARIO_FLAGS = {"norm": {"tol": float}, "approx": {"tol": float, "N": int}}


def _check(command: str, doc: dict, base: Path | None) -> dict:
    """Every field of ``command``, taken from ``doc`` or its default and
    checked against its kind.  Paths resolve against ``base``; None keeps them
    relative to the working directory."""
    fields = COMMANDS[command][1]
    for name in doc:
        if name != "command" and name not in fields:
            raise ScenarioError(f"{command} scenario has unknown field {name!r}")
    args = {}
    for name, (kind, default) in fields.items():
        value = doc.get(name, default)
        if value is REQUIRED:
            raise ScenarioError(f"{command} scenario needs {name!r}")
        test, must = _KINDS[kind]
        if not (test(value) or (value is None and default is None)):
            raise ScenarioError(f"{command} field {name!r} must {must}, got {value!r}")
        args[name] = str(base / value) if kind == "path" and base is not None else value
    return args


def _run(command: str, doc: dict, base: Path | None, source: dict | None) -> dict:
    rep = COMMANDS[command][0](_check(command, doc, base), source)
    rep["assertions"] = list(map(_row, rep["assertions"]))
    return rep


def _load_scenario(path: str | Path, expected: str | None = None) -> tuple[dict, Path, dict]:
    """A scenario document, the directory its relative paths resolve against,
    and its echo: the path as given and the sha256 of the bytes decoded."""
    import hashlib  # imported here: OpenSSL adds milliseconds to every import of the CLI

    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"scenario file not found: {p}")
    data = p.read_bytes()
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "command" not in doc:
        raise ScenarioError(f"scenario {p} must be an object with a 'command' field")
    command = doc["command"]
    if expected is not None and command != expected:
        raise ScenarioError(f"scenario {p} has command {command!r}, expected {expected!r}")
    # a suite does not nest
    if not isinstance(command, str) or command not in COMMANDS or command == "verify-all":
        raise ScenarioError(f"unknown scenario command {command!r}")
    return doc, p.parent, {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def run_scenario(path: str | Path) -> dict:
    """Run a scenario file; its relative paths resolve against its directory."""
    doc, base, source = _load_scenario(path)
    return _run(doc["command"], doc, base, source)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per command; its flags are its fields, except for the
    commands that read a scenario file."""
    parser = argparse.ArgumentParser(
        prog="rokhlin",
        description="Finite-scale markers, towers, crossed-product norms and CP approximations.",
    )
    parser.add_argument("--version", action="version", version=f"rokhlin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (runner, fields) in COMMANDS.items():
        p = sub.add_parser(command, help=runner.__doc__)
        if command in _SCENARIO_FLAGS:
            p.add_argument("--scenario", required=True)
            for name, type_ in _SCENARIO_FLAGS[command].items():
                p.add_argument(f"--{name}", type=type_, help=f"override the scenario's {name!r}")
        else:
            for name, (kind, default) in fields.items():
                p.add_argument(f"--{name.replace('_', '-')}", required=default is REQUIRED,
                               type=str if kind in ("path", "ratio") else int)
        p.add_argument("--out", type=str, default=None, help="write the JSON report here")
    return parser


# built by the first main() call, not at import, and reused by every later one
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    flags = _SCENARIO_FLAGS.get(args.command, COMMANDS[args.command][1])
    given = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    try:
        if args.command in _SCENARIO_FLAGS:
            doc, base, source = _load_scenario(args.scenario, args.command)
            source.update(given)
        else:
            doc, base, source = {}, None, None
        doc.update(given)
        report = _run(args.command, doc, base, source)
    except _INPUT_ERRORS as exc:
        error = {
            "tool": {"name": "rokhlin", "version": __version__},
            "command": args.command,
            "error": _error(exc),
            "assertions": [_row(Check.at_most("error", 1, 0))],
        }
        print(emit_report(error, args.out), end="")
        return 2

    print(emit_report(report, args.out), end="")
    if args.command == "verify-all":
        lines = ["scenario".ljust(40) + "assertions  pass"]
        for row in report["summary"]:
            status = f"error: {row['error']['message']}" if "error" in row else row["pass"]
            lines.append(f"{row['scenario']:<40}{row['assertions']:>10}  {status}")
        print("\n".join(lines), file=_sys.stderr)
        if any("error" in row for row in report["summary"]):
            return 2
    return 0 if all(a["pass"] for a in report["assertions"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
