"""Command-line front end: loads systems and scenario files, runs the
pipelines, and emits deterministic machine-readable reports.

Reports are JSON with sorted keys and fixed 17-significant-digit float
formatting, so identical runs produce byte-identical files.  The exit status
is 0 exactly when every assertion row passes.  Wall-clock timing goes to
stderr, never into the report bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .approx import run_approximation
from .cstar import (
    CrossedElement,
    norm,
    orbit_rep_with_phases,
    holonomy,
    periodic_embedding,
    primitive_spectrum,
)
from .dynsys import FiniteDynamicalSystem, load_system, quotient_report
from .markers import greedy_markers
from .towers import TowerFamily, build_tower_family, verify_tower

DEFAULT_SEED = 20260809


class ScenarioError(ValueError):
    """A scenario file is malformed or references missing inputs."""


# ---------------------------------------------------------------------------
# deterministic JSON


def _dump(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  {json.dumps(str(key))}: {_dump(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, complex):
        return _dump([obj.real, obj.imag], indent)
    raise TypeError(f"cannot serialize {type(obj)}")


def emit_report(report: dict, path: str | Path | None) -> str:
    """Serialize a report deterministically; write it if a path is given."""
    text = _dump(report) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _assertion(name: str, measured: float, bound: float, passed: bool | None = None) -> dict:
    """One report row; ``passed`` defaults to measured <= bound."""
    return {
        "name": name,
        "measured": float(measured),
        "bound": float(bound),
        "pass": bool(measured <= bound if passed is None else passed),
    }


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


def _labels_to_indices(sys: FiniteDynamicalSystem, labels) -> list[int]:
    out = []
    for lab in labels:
        if lab not in sys.index:
            raise ScenarioError(f"unknown point label {lab!r}")
        out.append(sys.index[lab])
    return out


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


def parse_element(sys: FiniteDynamicalSystem, literal) -> CrossedElement:
    """Element literal: list of band entries {power, coefficients|constant}.

    ``coefficients`` maps point labels to [re, im] pairs (missing points are
    zero); ``constant`` applies one [re, im] value to every point.  Every
    value must be a pair of finite numbers.
    """
    if not isinstance(literal, list):
        raise ScenarioError("element literal must be a list of band entries")
    coeffs: dict[int, np.ndarray] = {}
    for entry in literal:
        if not isinstance(entry, dict) or not isinstance(entry.get("power"), int):
            raise ScenarioError(f"bad band entry {entry!r}")
        i = entry["power"]
        arr = coeffs.setdefault(i, np.zeros(sys.n, dtype=np.complex128))
        if "constant" in entry:
            arr += _finite_pair(entry["constant"], f"constant at power {i}")
        elif isinstance(entry.get("coefficients"), dict):
            for lab, value in entry["coefficients"].items():
                if lab not in sys.index:
                    raise ScenarioError(f"unknown point label {lab!r}")
                arr[sys.index[lab]] += _finite_pair(value, f"coefficient of {lab!r} at power {i}")
        else:
            raise ScenarioError(f"band entry {entry!r} needs 'coefficients' or 'constant'")
    return CrossedElement(sys, coeffs)


# ---------------------------------------------------------------------------
# command handlers (each returns a report dict)


def cmd_orbits(args) -> dict:
    sys = _read_system(args.system)
    rep = _report_shell("orbits", {"system": str(args.system)})
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
    rep["assertions"].append(_assertion("orbit_partition_defect", abs(covered - sys.n), 0))
    return rep


def cmd_markers(args) -> dict:
    sys = _read_system(args.system)
    rep = _report_shell("markers", {"system": str(args.system), "m": args.m, "d": args.d})
    d = args.d if args.d is not None else sys.declared_dim
    cert = greedy_markers(sys, args.m, range(sys.n), d)
    rep["markers"] = {
        "positions": sorted(sys.labels[x] for x in cert.markers),
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
    rep["assertions"].append(
        _assertion("translate_disjointness_violations", 0 if cert.flag_disjoint else 1, 0)
    )
    rep["assertions"].append(
        _assertion("covering_violations", 0 if cert.flag_cover else 1, 0)
    )
    return rep


def _rung_values(family: TowerFamily, l: int) -> dict:
    """Nonzero tower values of level l keyed by rung, then by point label."""
    out = {}
    for col in range(2 * family.m + 1):
        nz = np.flatnonzero(family.num[l, :, col])
        if nz.size:
            points = family.points[l, nz, col].tolist()
            values = (family.num[l, nz, col] / family.den).tolist()
            out[str(col - family.m)] = {family.sys.labels[x]: v for x, v in zip(points, values)}
    return out


def cmd_towers(args) -> dict:
    sys = _read_system(args.system)
    d = args.d if args.d is not None else sys.declared_dim
    rep = _report_shell(
        "towers",
        {"system": str(args.system), "d": d, "k": args.k, "m": args.m, "epsilon": args.epsilon},
    )
    family = build_tower_family(sys, d, args.k, args.m, args.epsilon, range(sys.n))
    tower = verify_tower(family)
    rep["towers"] = {
        "levels": family.levels,
        "k_prime": family.k_prime,
        "supports": [sorted(sys.labels[x] for x in s) for s in family.supports],
        "step_bound": tower.step_bound,
        "step_measured": tower.step_measured,
        "conservation_exact": tower.conservation_exact,
        "values": [_rung_values(family, l) for l in range(family.levels)],
    }
    rep["assertions"].append(_assertion("conservation_error", tower.conservation_error, 1e-12))
    rep["assertions"].append(_assertion("step_measured", tower.step_measured, tower.step_bound))
    rep["assertions"].append(_assertion("step_bound_vs_epsilon", tower.step_bound, float(family.eps)))
    rep["assertions"].append(
        _assertion("support_disjointness_violations", 0 if tower.supports_disjoint else 1, 0)
    )
    return rep


def cmd_periodic(args) -> dict:
    sys = _read_system(args.system)
    rep = _report_shell(
        "periodic", {"system": str(args.system), "lambda_grid": args.lambda_grid, "seed": args.seed}
    )
    emb = periodic_embedding(sys, args.lambda_grid)
    rng = np.random.default_rng(args.seed)
    f = rng.standard_normal(sys.n)
    spec = primitive_spectrum(sys)
    rep["periodic"] = {
        "period": emb.n,
        "spectrum": list(spec.rows),
        "max_irreducible_dim": spec.max_irreducible_dim,
    }
    rep["assertions"].append(_assertion("unitarity_residual", emb.unitarity_residual(), 1e-12))
    rep["assertions"].append(_assertion("covariance_residual", emb.covariance_residual(f), 1e-12))
    a = CrossedElement(sys, {i: rng.standard_normal(sys.n) for i in (-2, -1, 0, 1, 2)})
    rep["assertions"].append(_assertion("expectation_square_residual", emb.expectation_residual(a), 1e-9))
    worst = 0.0
    for cyc in sys.orbits().cycles:
        phases = np.exp(2j * np.pi * rng.random(cyc.length))
        fiber = orbit_rep_with_phases(sys, cyc, phases)
        lam = holonomy(fiber)
        power = np.linalg.matrix_power(fiber.u_matrix, cyc.length)
        worst = max(worst, float(np.abs(power - lam * np.eye(cyc.length)).max()))
    rep["assertions"].append(_assertion("holonomy_power_residual", worst, 1e-10))
    rep["assertions"].append(
        _assertion("irreducible_dim_excess", spec.max_irreducible_dim - emb.n, 0)
    )
    return rep


def _load_scenario(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"scenario file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "command" not in doc:
        raise ScenarioError(f"scenario {p} must be an object with a 'command' field")
    doc["_dir"] = p.parent
    return doc


def _resolve(doc: dict, key: str) -> Path:
    return Path(doc["_dir"]) / doc[key]


def _tol(doc: dict) -> float:
    tol = doc.get("tol", 1e-3)
    if not isinstance(tol, (int, float, str)) or isinstance(tol, bool):
        raise ScenarioError(f"'tol' must be a number, got {tol!r}")
    return float(tol)


def run_norm_scenario(doc: dict) -> dict:
    sys = _read_system(_resolve(doc, "system"))
    rep = _report_shell("norm", {k: v for k, v in doc.items() if k != "_dir"})
    tol = _tol(doc)
    a = parse_element(sys, doc["element"])
    result = norm(a, tol)
    rep["norm"] = {
        "value": result.value,
        "upper": result.upper,
        "tol": result.tol,
        "grids": result.grids,
        "per_orbit": {
            lab: {"value": v, "argmax": [lam.real, lam.imag]}
            for lab, (v, lam) in (result.per_orbit or {}).items()
        },
        "coefficient_bound": a.coefficient_bound(),
    }
    for name, bound in doc.get("expect", {}).items():
        if name == "value_at_most":
            rep["assertions"].append(_assertion("norm_value", result.value, float(bound)))
        elif name == "value_at_least":
            rep["assertions"].append(_assertion("norm_lower_defect", float(bound) - result.upper, 0.0))
        else:
            raise ScenarioError(f"unknown norm expectation {name!r}")
    return rep


def run_approx_scenario(doc: dict) -> dict:
    """Approx scenario: ``elements`` (a list of element literals) and
    ``epsilon`` (a number or a fraction string) are required; ``N`` must be an
    integer and ``e`` an object mapping point labels to finite numbers in
    [0, 1]."""
    for key in ("elements", "epsilon"):
        if key not in doc:
            raise ScenarioError(f"approx scenario needs {key!r}")
    if not isinstance(doc["elements"], list):
        raise ScenarioError("'elements' must be a list of element literals")
    if not isinstance(doc["epsilon"], (int, float, str)) or isinstance(doc["epsilon"], bool):
        raise ScenarioError(f"'epsilon' must be a number or a fraction string, got {doc['epsilon']!r}")
    N = doc.get("N")
    if N is not None and (not isinstance(N, int) or isinstance(N, bool)):
        raise ScenarioError(f"'N' must be an integer, got {N!r}")
    if "e" in doc and not isinstance(doc["e"], dict):
        raise ScenarioError("'e' must map point labels to numbers")
    sys = _read_system(_resolve(doc, "system"))
    rep = _report_shell("approx", {k: v for k, v in doc.items() if k != "_dir"})
    tol = _tol(doc)
    F = [parse_element(sys, lit) for lit in doc["elements"]]
    e_values = None
    if "e" in doc:
        e_values = np.zeros(sys.n)
        for lab, v in doc["e"].items():
            e_values[_labels_to_indices(sys, [lab])[0]] = _finite_number(v, f"e at {lab!r}")
    run = run_approximation(
        sys, F, doc["epsilon"], N_override=N, e_values=e_values, norm_tol=tol,
    )
    fz = run.factorization
    p = run.params
    rep["parameters"] = {
        "d": p.d, "k": p.k, "m": p.m, "N": p.N,
        "eps": float(p.eps), "eps_prime": float(p.eps_prime),
        "short_part_size": len(p.split.y_part),
        "long_part_size": len(p.split.complement),
    }
    rep["ledger"] = {
        "quotient_colors_declared": fz.ledger.quotient_colors_declared,
        "quotient_colors_actual": fz.ledger.quotient_colors_actual,
        "ideal_colors": fz.ledger.ideal_colors,
        "total_declared": fz.ledger.total_declared,
        "closed_form_bound": fz.ledger.closed_form_bound,
        "additive_bound": fz.ledger.additive_bound,
    }
    for claim in (fz.quotient_corner, fz.ideal_corner, fz.final):
        if claim is None:
            continue
        rep["assertions"].append(
            _assertion(claim.name, claim.max_measured, claim.bound + claim.norm_tol, claim.passed)
        )
    if fz.sqrt_step is not None:
        step = fz.sqrt_step
        rep["assertions"].append(
            _assertion("sqrt_step", step["sqrt_step"], step["sqrt_step_bound"], step["strict"])
        )
    rep["assertions"].append(
        _assertion("summand_count_defect", abs(fz.summands_actual - fz.summands_declared)
                   if p.split.y_part and p.split.complement else 0, 0)
    )
    rep["assertions"].append(
        _assertion("ledger_identity_violations", 0 if fz.ledger.identities_hold() else 1, 0)
    )
    rep["assertions"].append(_assertion("tower_violations", 0 if run.tower_ok else 1, 0))
    return rep


def _ns(**kw) -> argparse.Namespace:
    return argparse.Namespace(**kw)


def run_orbits_scenario(doc: dict) -> dict:
    return cmd_orbits(_ns(system=_resolve(doc, "system")))


def run_markers_scenario(doc: dict) -> dict:
    return cmd_markers(_ns(system=_resolve(doc, "system"), m=int(doc["m"]), d=doc.get("d")))


def run_towers_scenario(doc: dict) -> dict:
    return cmd_towers(
        _ns(system=_resolve(doc, "system"), d=doc.get("d"), k=int(doc["k"]),
            m=int(doc["m"]), epsilon=str(doc["epsilon"]))
    )


def run_periodic_scenario(doc: dict) -> dict:
    return cmd_periodic(
        _ns(system=_resolve(doc, "system"), lambda_grid=int(doc.get("lambda_grid", 64)),
            seed=int(doc.get("seed", DEFAULT_SEED)))
    )


_SCENARIO_RUNNERS = {
    "norm": run_norm_scenario,
    "approx": run_approx_scenario,
    "orbits": run_orbits_scenario,
    "markers": run_markers_scenario,
    "towers": run_towers_scenario,
    "periodic": run_periodic_scenario,
}


def run_scenario(path: str | Path) -> dict:
    """Dispatch a scenario file to its command runner."""
    doc = _load_scenario(path)
    command = doc["command"]
    if command not in _SCENARIO_RUNNERS:
        raise ScenarioError(f"unknown scenario command {command!r}")
    return _SCENARIO_RUNNERS[command](doc)


def cmd_scenario_file(args, command: str) -> dict:
    doc = _load_scenario(args.scenario)
    if doc["command"] != command:
        raise ScenarioError(f"scenario {args.scenario} has command {doc['command']!r}, expected {command!r}")
    if getattr(args, "tol", None) is not None:
        doc["tol"] = args.tol
    if getattr(args, "N", None) is not None:
        doc["N"] = args.N
    return _SCENARIO_RUNNERS[command](doc)


def cmd_verify_all(args) -> dict:
    suite_path = Path(args.suite)
    if not suite_path.exists():
        raise ScenarioError(f"suite file not found: {suite_path}")
    doc = json.loads(suite_path.read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
        raise ScenarioError("suite must be an object with a 'scenarios' array")
    rep = _report_shell("verify-all", {"suite": str(args.suite)})
    summary = []
    for rel in doc["scenarios"]:
        spath = suite_path.parent / rel
        sub = run_scenario(spath)
        ok = all(a["pass"] for a in sub["assertions"])
        summary.append({"scenario": str(rel), "assertions": len(sub["assertions"]), "pass": ok})
        rep["assertions"].append(_assertion(f"scenario:{rel}", 0 if ok else 1, 0))
    rep["summary"] = summary
    return rep


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rokhlin",
        description="Finite-scale markers, towers, crossed-product norms and CP approximations.",
    )
    parser.add_argument("--version", action="version", version=f"rokhlin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=str, default=None, help="write the JSON report here")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--timing", action="store_true", help="print wall time to stderr")

    p = sub.add_parser("orbits", help="orbit decomposition and quotient summary")
    p.add_argument("--system", required=True)
    common(p)

    p = sub.add_parser("markers", help="greedy marker certificate")
    p.add_argument("--system", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    common(p)

    p = sub.add_parser("towers", help="tower pipeline and verification")
    p.add_argument("--system", required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", type=str, required=True)
    common(p)

    p = sub.add_parser("periodic", help="periodic embedding and spectrum checks")
    p.add_argument("--system", required=True)
    p.add_argument("--lambda-grid", type=int, default=64)
    common(p)

    p = sub.add_parser("norm", help="certified norm of an element scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--tol", type=float, default=None, help="override the scenario tolerance")
    common(p)

    p = sub.add_parser("approx", help="full approximation scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--tol", type=float, default=None, help="override the scenario tolerance")
    p.add_argument("--N", type=int, default=None, help="override the orbit-length split")
    common(p)

    p = sub.add_parser("verify-all", help="run every scenario in a suite")
    p.add_argument("--suite", required=True)
    common(p)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        if args.command == "orbits":
            report = cmd_orbits(args)
        elif args.command == "markers":
            report = cmd_markers(args)
        elif args.command == "towers":
            report = cmd_towers(args)
        elif args.command == "periodic":
            report = cmd_periodic(args)
        elif args.command == "norm":
            report = cmd_scenario_file(args, "norm")
        elif args.command == "approx":
            report = cmd_scenario_file(args, "approx")
        elif args.command == "verify-all":
            report = cmd_verify_all(args)
        else:  # pragma: no cover
            raise ScenarioError(f"unknown command {args.command!r}")
    except (ScenarioError, ValueError, OSError) as exc:
        error = {
            "tool": {"name": "rokhlin", "version": __version__},
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "assertions": [{"name": "error", "measured": 1.0, "bound": 0.0, "pass": False}],
        }
        print(emit_report(error, args.out), end="")
        return 2

    text = emit_report(report, args.out)
    print(text, end="")
    if args.timing:
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=_sys.stderr)
    if args.command == "verify-all":
        lines = ["scenario".ljust(40) + "assertions  pass"]
        for row in report["summary"]:
            lines.append(f"{row['scenario']:<40}{row['assertions']:>10}  {row['pass']}")
        print("\n".join(lines), file=_sys.stderr)
    return 0 if all(a["pass"] for a in report["assertions"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
