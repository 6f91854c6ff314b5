"""Every function in src/fxattn runs under a CLI command or a benchmark entry
point, and no function rebinds module state.

A function that only tests call is a second implementation to keep in step
with the first; this guard fails as soon as one appears. It runs each CLI
subcommand in-process on tiny inputs, then the entry points the benchmark
harness calls directly, and records every Python call with sys.setprofile.

A module variable that code rebinds is shared by every caller in the
process, so two callers (a sweep inside a sweep, one test after another)
see each other's state. The second guard fails on any ``global`` statement.
"""
import ast
import inspect
import json
import sys
import types
from pathlib import Path

import numpy as np

import fxattn
from fxattn import attention as att
from fxattn import cli, data, fxp, model
from fxattn import softmax as sm

SRC = Path(fxattn.__file__).resolve().parent

# "module.qualname" -> why no command or benchmark entry point reaches it
EXEMPT: dict[str, str] = {}


def defined_functions() -> dict:
    """(file, first line, name) -> "module.qualname" of every def and lambda."""
    out = {}

    def walk(code: types.CodeType, path: str, qual: str) -> None:
        for c in code.co_consts:
            if not isinstance(c, types.CodeType):
                continue
            name = f"{qual}.{c.co_name}" if qual else c.co_name
            is_function = c.co_flags & inspect.CO_NEWLOCALS  # not a class body
            if is_function and (c.co_name == "<lambda>" or not c.co_name.startswith("<")):
                out[(path, c.co_firstlineno, c.co_name)] = f"{Path(path).stem}.{name}"
            walk(c, path, name)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), str(path), "")
    return out


def reached_during(run) -> set:
    """(file, first line, name) of every Python function ``run`` calls."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in seen}


def run_commands(out: Path) -> None:
    device = out / "device.json"
    device.write_text(json.dumps({"name": "tiny", "dsp_total": 9000, "lut_total": 10 ** 6,
                                  "ff_total": 10 ** 6, "bram_total": 2000,
                                  "clock_ns": 6.58}))
    csv, weights = str(out / "dataset.csv"), str(out / "weights.json")
    commands = [
        ["gen-data", "--n", "50"],
        ["make-weights"],
        ["infer", "--weights", weights, "--data", csv],
        ["infer", "--weights", weights, "--data", csv, "--fmt", "fixed<16,6>"],
        ["infer", "--weights", weights, "--data", csv, "--fmt", "fixed<64,32>"],
        # its products bound their sums between 2**53 and 2**62: the int64 tier
        ["infer", "--weights", weights, "--data", csv, "--fmt", "fixed<48,24>"],
        ["sweep-precision", "--weights", weights, "--data", csv,
         "--int-bits", "10", "--frac-bits", "0,16", "--jobs", "1"],
        ["sweep-reuse", "--device", f"custom:{device}"],
        ["report-resources"],
    ]
    for argv in commands:
        assert cli.main([*argv, "--out", str(out)]) == 0, argv


def run_benchmark_entry_points() -> None:
    cfg = model.ModelConfig()
    weights = model.random_weights(cfg, np.random.default_rng(1))
    fmt = fxp.parse_format("fixed<20,10>")
    mha_cfg = cfg.encoder.mha
    mha = att.quantize_mha_weights(weights.blocks[0].mha, fmt)
    scfg = sm.make_softmax_config(fmt, n_max=mha_cfg.seq_len + 1,
                                  table_size=cfg.softmax_table_size, exp_lo=cfg.softmax_exp_lo)
    x = fxp.quantize_array(data.generate_synthetic(1, seed=3).feature_tensor()[0], fmt)
    streamed = att.run_mha_streaming(mha_cfg, mha, scfg, x)
    assert np.array_equal(streamed.raw, att.run_mha_reference(mha_cfg, mha, scfg, x).raw)


def test_every_src_function_is_reached(tmp_path):
    def run():
        run_commands(tmp_path)
        run_benchmark_entry_points()

    defined = defined_functions()
    reached = reached_during(run)
    unreached = sorted(q for key, q in defined.items() if key not in reached)
    assert set(EXEMPT) <= set(unreached), \
        f"reached now, drop from EXEMPT: {sorted(set(EXEMPT) - set(unreached))}"
    missing = [q for q in unreached if q not in EXEMPT]
    assert not missing, f"defined in src/fxattn but never reached: {missing}"


def global_statements() -> list[str]:
    """"module.qualname: global names" of every global statement in src/fxattn."""
    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                found.append(f"{where}: global {', '.join(child.names)}")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if named else where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_no_global_statement():
    assert global_statements() == []


def object_array_sites() -> list[str]:
    """"module:line" of every ``dtype=object``, ``astype(object)`` and
    ``_as_object`` in src/fxattn."""
    def is_object(node) -> bool:
        return isinstance(node, ast.Name) and node.id == "object"

    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            named = {getattr(node, key, None) for key in ("id", "attr", "name")}
            if ("_as_object" in named
                    or isinstance(node, ast.keyword) and node.arg == "dtype"
                    and is_object(node.value)
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype" and node.args and is_object(node.args[0])):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_object_arrays():
    # raws are int64 at every width; wide intermediates run on int64 limbs
    assert object_array_sites() == []
