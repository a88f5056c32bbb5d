"""Seeded inputs, plans and output checks for the four workloads.

Each ``make_*`` function writes the generated inputs for one seed into the
run's work directory and returns the plan: the argv of every request of one
pass, a tag, where the worker writes the report, and which check applies.
The program sees only these generated files.  Checks read the reports and
the generated inputs; none of them imports rokhlin.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# norm_banded: the elements are drawn once from this fixed seed.  Power
# iteration cost depends on each element's spectral gaps: in a trial over five
# seeds, fresh draws gave passes of 3.2-5.2 s and this fixed pool 2.9-3.2 s.
# The run seed instead relabels the system, rotates each element along its
# cycle and multiplies it by a phase.  Those maps conjugate every fiber by a
# unitary, so the norm and the per-point spectra are the same for every seed
# while the input files differ.
NORM_POOL_SEED = 20261017
NORM_LENGTHS = (48, 96, 128, 192)  # both sides of the 96-point dense/power split
NORM_RADII = (1, 2)
NORM_TOL = 0.01
NORM_DENSE_MAX_L = 96

TOWERS_LENGTHS = (1999, 2003, 2011, 2017)
TOWERS_ARGS = ("--d", "1", "--k", "1", "--m", "10", "--epsilon", "1/2")


class CheckError(Exception):
    """An output failed a correctness check."""


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc))


def _rel(path: Path, root: Path) -> str:
    return str(path.relative_to(root))


def _permute_points(system: dict, rng: random.Random) -> dict:
    points = list(system["points"])
    rng.shuffle(points)
    return dict(system, points=points)


def _cycle_system(lengths, rng: random.Random, dim: int) -> tuple[dict, list[list[str]]]:
    """Disjoint cycles with random labels, listed in random point order."""
    n = sum(lengths)
    labels = [f"p{v:06d}" for v in rng.sample(range(10 * n), n)]
    cycles, forward, offset = [], {}, 0
    for length in lengths:
        cyc = labels[offset : offset + length]
        offset += length
        cycles.append(cyc)
        forward.update({lab: cyc[(j + 1) % length] for j, lab in enumerate(cyc)})
    points = list(labels)
    rng.shuffle(points)
    return {"points": points, "map": forward, "dimension": dim}, cycles


def make_approx_acceptance(seed: int, root: Path, work: Path) -> dict:
    scen_dir = root / "scenarios"
    doc = json.loads((scen_dir / "approx_acceptance.json").read_text())
    system = json.loads((scen_dir / doc["system"]).read_text())
    _write_json(work / "system.json", _permute_points(system, random.Random(seed)))
    _write_json(work / "scenario.json", dict(doc, system="system.json"))
    return {"requests": [{
        "argv": ["approx", "--scenario", _rel(work / "scenario.json", root)],
        "report": _rel(work / "report-0.json", root),
        "check": {"kind": "approx"},
    }]}


def _norm_pool() -> list[tuple[int, int, dict[int, np.ndarray]]]:
    """Random banded contractions: every band has sup exactly 1/(2r+1)."""
    rng = np.random.default_rng(NORM_POOL_SEED)
    pool = []
    for ci, length in enumerate(NORM_LENGTHS):
        for radius in NORM_RADII:
            bands = {}
            for power in range(-radius, radius + 1):
                z = rng.standard_normal(length) + 1j * rng.standard_normal(length)
                bands[power] = z / np.abs(z).max() / (2 * radius + 1)
            pool.append((ci, radius, bands))
    return pool


def make_norm_banded(seed: int, root: Path, work: Path) -> dict:
    rng = random.Random(seed)
    system, cycles = _cycle_system(NORM_LENGTHS, rng, 0)
    _write_json(work / "system.json", system)
    requests = []
    for idx, (ci, radius, bands) in enumerate(_norm_pool()):
        cyc = cycles[ci]
        length = len(cyc)
        shift = rng.randrange(length)
        phase = complex(np.exp(2j * math.pi * rng.random()))
        element = [
            {"power": power, "coefficients": {
                cyc[(j + shift) % length]: [(phase * v).real, (phase * v).imag] for j, v in enumerate(z)
            }}
            for power, z in bands.items()
        ]
        scen = work / f"norm-{idx}.json"
        _write_json(scen, {"command": "norm", "system": "system.json", "tol": NORM_TOL, "element": element})
        requests.append({
            "argv": ["norm", "--scenario", _rel(scen, root)],
            "tag": "short" if length <= NORM_DENSE_MAX_L else "long",
            "report": _rel(work / f"report-{idx}.json", root),
            "check": {"kind": "norm", "scenario": _rel(scen, root)},
        })
    return {"requests": requests}


def make_towers_wide(seed: int, root: Path, work: Path) -> dict:
    system, _ = _cycle_system(TOWERS_LENGTHS, random.Random(seed), 1)
    _write_json(work / "system.json", system)
    return {"requests": [{
        "argv": ["towers", "--system", _rel(work / "system.json", root), *TOWERS_ARGS],
        "report": _rel(work / "report-0.json", root),
        "check": {"kind": "towers", "system": _rel(work / "system.json", root)},
    }]}


def make_suite_small(seed: int, root: Path, work: Path) -> dict:
    rng = random.Random(seed)
    scen_dir = root / "scenarios"
    suite = json.loads((scen_dir / "suite.json").read_text())
    names = list(suite["scenarios"])
    systems = set()
    for name in names:
        doc = json.loads((scen_dir / name).read_text())
        systems.add(doc["system"])
        _write_json(work / name, doc)
    for name in sorted(systems):
        _write_json(work / name, _permute_points(json.loads((scen_dir / name).read_text()), rng))
    rng.shuffle(names)
    _write_json(work / "suite.json", dict(suite, scenarios=names))
    return {"requests": [{
        "argv": ["verify-all", "--suite", _rel(work / "suite.json", root)],
        "report": _rel(work / "report-0.json", root),
        "check": {"kind": "suite", "scenarios": len(names)},
    }]}


MAKERS = {
    "approx_acceptance": make_approx_acceptance,
    "norm_banded": make_norm_banded,
    "towers_wide": make_towers_wide,
    "suite_small": make_suite_small,
}


# ---------------------------------------------------------------------------
# checks


def _cycles(system: dict) -> list[list[str]]:
    """Forward orbits, each starting at its least label."""
    seen, cycles = set(), []
    for start in sorted(system["points"]):
        if start in seen:
            continue
        cyc, x = [start], system["map"][start]
        while x != start:
            cyc.append(x)
            x = system["map"][x]
        seen.update(cyc)
        cycles.append(cyc)
    return cycles


def _next_pow2(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(1.0, x))))


def dense_norm_reference(system: dict, element: list, tol: float) -> dict:
    """Largest fiber singular value over each cycle's certified circle grid,
    by a dense Hermitian eigensolver on every grid point.

    Slot r of a cycle's fiber holds the (-r)-th iterate of its least label;
    band i puts its coefficient at (r, r+i mod L), twisted by lam^floor((r+i)/L).
    """
    value, grids = 0.0, {}
    for cyc in _cycles(system):
        L = len(cyc)
        slot = {lab: (-pos) % L for pos, lab in enumerate(cyc)}
        bands: dict[int, np.ndarray] = {}
        for entry in element:
            diag = bands.setdefault(int(entry["power"]), np.zeros(L, dtype=np.complex128))
            if "constant" in entry:
                diag += complex(*entry["constant"])
            for lab, (re, im) in entry.get("coefficients", {}).items():
                if lab in slot:
                    diag[slot[lab]] += complex(re, im)
        bands = {i: d for i, d in bands.items() if np.any(d != 0)}
        if not bands:
            continue
        lip = sum(np.abs(d).max() * math.ceil(abs(i) / L) for i, d in bands.items())
        n = _next_pow2(lip * math.pi / tol) if lip > 0 else 1
        grids[cyc[0]] = n
        lams = np.exp(2j * np.pi * np.arange(n) / n)
        rows = np.arange(L)
        for start in range(0, n, 64):
            lam = lams[start : start + 64]
            mats = np.zeros((len(lam), L, L), dtype=np.complex128)
            for i, d in bands.items():
                mats[:, rows, (rows + i) % L] += d[None, :] * lam[:, None] ** ((rows + i) // L)[None, :]
            gram = mats.conj().transpose(0, 2, 1) @ mats
            top = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
            value = max(value, float(top.max()))
    return {"value": value, "grids": grids}


def _check_norm(report: dict, check: dict, root: Path, refs: dict) -> None:
    ref = refs[check["scenario"]]
    got = report["norm"]
    if got["grids"] != ref["grids"]:
        raise CheckError(f"grid sizes {got['grids']} differ from the reference {ref['grids']}")
    if abs(got["value"] - ref["value"]) > got["tol"]:
        raise CheckError(f"norm {got['value']} is not within tol {got['tol']} of the dense maximum {ref['value']}")


def _check_approx(report: dict, check: dict, root: Path, refs: dict) -> None:
    ref = json.loads((HERE / "reference" / "approx_acceptance.json").read_text())
    measured = {row["name"]: row["measured"] for row in report["assertions"]}
    for name, value in ref["claims"].items():
        if abs(measured[name] - value) > ref["tol"]:
            raise CheckError(f"claim {name} = {measured[name]} is not within {ref['tol']} of {value}")
    for key in ("parameters", "ledger"):
        if report[key] != ref[key]:
            raise CheckError(f"{key} {report[key]} differ from the reference {ref[key]}")


def _check_towers(report: dict, check: dict, root: Path, refs: dict) -> None:
    """Exact conservation and step flags, then both re-measured from the
    reported tower values against the generated system."""
    towers = report["towers"]
    if not towers["conservation_exact"]:
        raise CheckError("tower conservation is not exact")
    if not towers["step_measured"] <= towers["step_bound"]:
        raise CheckError(f"tower step {towers['step_measured']} exceeds {towers['step_bound']}")
    system = json.loads((root / check["system"]).read_text())
    index = {lab: i for i, lab in enumerate(system["points"])}
    forward = np.array([index[system["map"][lab]] for lab in system["points"]])
    m = int(report["scenario"]["m"])
    k = int(report["scenario"]["k"])
    total = np.zeros(len(index))
    step = 0.0
    for level in towers["values"]:
        # rows j = -m-k .. m+k; rows outside [-m, m] stay zero
        mu = np.zeros((2 * (m + k) + 1, len(index)))
        for j, fn in level.items():
            mu[int(j) + m + k, [index[lab] for lab in fn]] = list(fn.values())
        total += mu.sum(axis=0)
        image = np.arange(len(index))
        for i in range(1, k + 1):
            image = forward[image]  # image[x] is the i-th forward iterate of x
            for sign, img in ((1, image), (-1, np.argsort(image))):
                # mu_j o alpha_(sign i) against mu_(j - sign i)
                shifted = mu[:, img]
                lo, hi = (i, None) if sign > 0 else (None, -i)
                lo2, hi2 = (None, -i) if sign > 0 else (i, None)
                step = max(step, float(np.abs(shifted[lo:hi] - mu[lo2:hi2]).max()))
    if np.abs(total - 1.0).max() > 1e-9:
        raise CheckError(f"tower values sum to 1 only within {np.abs(total - 1.0).max()}")
    if abs(step - towers["step_measured"]) > 1e-12:
        raise CheckError(f"re-measured tower step {step} differs from the reported {towers['step_measured']}")
    if step > towers["step_bound"] + 1e-12:
        raise CheckError(f"re-measured tower step {step} exceeds {towers['step_bound']}")


def _check_suite(report: dict, check: dict, root: Path, refs: dict) -> None:
    if len(report["summary"]) != check["scenarios"] or not all(r["pass"] for r in report["summary"]):
        raise CheckError(f"suite summary {report['summary']} does not pass every scenario")


_CHECKS = {"approx": _check_approx, "norm": _check_norm, "towers": _check_towers, "suite": _check_suite}


def references(plan: dict, root: Path, cache: Path) -> dict:
    """Dense norm references for the plan's norm requests, cached per seed."""
    wanted = [r["check"]["scenario"] for r in plan["requests"] if r["check"]["kind"] == "norm"]
    if not wanted:
        return {}
    cached = json.loads(cache.read_text()) if cache.exists() else {}
    refs = {}
    for rel in wanted:
        text = (root / rel).read_text()
        scen = json.loads(text)
        system_text = ((root / rel).parent / scen["system"]).read_text()
        digest = hashlib.sha256((text + system_text).encode()).hexdigest()
        if cached.get(rel, {}).get("inputs") == digest:
            refs[rel] = cached[rel]
            continue
        ref = dense_norm_reference(json.loads(system_text), scen["element"], scen["tol"])
        refs[rel] = dict(ref, inputs=digest)
    if refs != cached:
        cache.write_text(json.dumps(refs))
    return refs


def check_report(text: str, code, check: dict, root: Path, refs: dict) -> None:
    """Raise CheckError unless the request exited 0 with every assertion row
    passing and the workload's own check holds."""
    if code != 0:
        raise CheckError(f"exit code {code}")
    report = json.loads(text)
    failing = [row["name"] for row in report["assertions"] if not row["pass"]]
    if failing:
        raise CheckError(f"assertion rows failed: {failing}")
    _CHECKS[check["kind"]](report, check, root, refs)
