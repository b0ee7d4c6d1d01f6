#!/usr/bin/env python3
"""Which statements of ``dva`` a fixed mix of commands never runs.

Runs a fixed mix of ``dva`` commands in this process, under
``sys.settrace``, on a tiny synthetic universe in a temporary directory:
``synth`` and ``ingest-check``; ``train``, ``predict``, ``evaluate`` (with
and without ``--baseline``) and ``sweep``; ``portfolio`` at lambda 0.1,
with ``regularize: false`` and with a fixed gamma; and one ``train`` per
loss toggle, each flipped from its default. A command that exits non-zero
stops the script.

Prints one JSON object: for each module of ``src/dva``, each function with
statements that never ran, mapped to the first lines of those statements,
or to ``"never called"``. The trace starts before ``dva`` is imported, so
what runs at import time counts. ``raise`` statements are not counted, and
a statement inside one that never ran is not listed apart from it. A
statement ran when a line of its own ran: all its lines for a simple
statement, the header (with decorators) for a compound one, or when a
statement inside it ran. ``tests/test_traffic.py`` gates the functions
reported as never called.

Usage: PYTHONPATH=src python scripts/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dva"
TOGGLES = (
    "latent_kl", "output_kl", "denoiser", "diffuse_x", "diffuse_y",
    "mse_against_clean", "dsm_block",
)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _children(stmt) -> list:
    """The statements directly inside a compound statement."""
    found = []
    for name in ("body", "orelse", "finalbody"):
        found += getattr(stmt, name, [])
    for handler in getattr(stmt, "handlers", []):
        found += handler.body
    return found


def _own_lines(stmt) -> range:
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, stmt.end_lineno + 1)


def _unrun(stmts, hit: set[int]) -> tuple[bool, list[int]]:
    """(whether any statement ran, the first lines of the top-most
    statements that did not, ``raise`` left out). A nested function's body
    is its own."""
    ran_any, unrun = False, []
    for stmt in stmts:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        ):
            continue  # a declaration or a docstring runs no line
        ran = any(line in hit for line in _own_lines(stmt))
        inner = []
        if not isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
            inner_ran, inner = _unrun(_children(stmt), hit)
            ran = ran or inner_ran
        if ran:
            unrun += inner
        elif not isinstance(stmt, ast.Raise):
            unrun.append(stmt.lineno)
        ran_any = ran_any or ran
    return ran_any, unrun


def report(path: Path, hit: set[int], called: set[int]) -> dict:
    """The never-run statements of every function in one module."""
    out = {}

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, FUNCTIONS):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                _, unrun = _unrun(child.body, hit)
                if first not in called:
                    if any(not isinstance(s, ast.Raise) for s in child.body):
                        out[name] = "never called"
                elif unrun:
                    out[name] = unrun
                visit(child, f"{name}.")

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def commands(root: Path) -> list[list[str]]:
    """The fixed mix, with the files it reads written under ``root``."""
    data = root / "data"
    wave = {"process": "sinusoid", "length": 160, "noise_scale": 0.01,
            "amplitude": 0.05, "period": 8.0}
    spec = root / "synth.json"
    spec.write_text(json.dumps({
        "schema_version": 1, "seed": 3,
        "tickers": {"AAA": wave, "BBB": dict(wave, phase=2.0), "CCC": dict(wave, phase=4.0)},
    }))
    base = {
        "schema_version": 1, "data_dir": str(data), "tickers_file": str(data / "tickers.txt"),
        "out_dir": str(root / "out"), "runs": 2, "t_in": 10, "t_out": 4, "epochs": 1,
        "batch_size": 16, "channels": 4, "latent": 2, "se_reduction": 2, "energy_hidden": 6,
    }

    def config(name: str, **fields) -> list[str]:
        path = root / f"{name}.json"
        path.write_text(json.dumps(dict(base, **fields)))
        return ["--config", str(path)]

    run = config("run", portfolio={"lambda": 0.1, "gamma_grid": [0.5, 2.0]})
    mix = [
        ["synth", "--spec", str(spec), "--out", str(data)],
        ["ingest-check", *run],
        ["train", *run],
        ["predict", *run, "--force"],
        ["evaluate", *run],
        ["evaluate", *run, "--force", "--baseline", str(root / "out" / "metrics.json")],
        ["sweep", *run, "--zeta-grid", "0.5,1.0", "--eta-grid", "1.0"],
        ["portfolio", *run],
        ["portfolio", *config("open", portfolio={"regularize": False}), "--force"],
        ["portfolio", *config("fixed", portfolio={"lambda": 0.1, "gamma_risk": 1.0}), "--force"],
    ]
    for toggle in TOGGLES:
        flipped = config(toggle, **{toggle: toggle == "mse_against_clean"})
        mix.append(["train", *flipped, "--out", str(root / toggle)])
    return mix


def main() -> int:
    prefix = str(SRC) + "/"
    hits: dict[str, set[int]] = {}
    calls: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        hits.setdefault(code.co_filename, set())
        calls.setdefault(code.co_filename, set()).add(code.co_firstlineno)
        return local

    sys.settrace(tracer)  # what runs at import time counts too
    try:
        from dva.cli import main as dva
    finally:
        sys.settrace(None)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(Path(tmp)):
            sys.settrace(tracer)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = dva(argv)
            finally:
                sys.settrace(None)
            if code != 0:
                print(f"dva {argv[0]} exited {code}", file=sys.stderr)
                return 1
    result = {}
    for path in sorted(SRC.glob("*.py")):
        name = str(path)
        found = report(path, hits.get(name, set()), calls.get(name, set()))
        if found:
            result[path.name] = found
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
