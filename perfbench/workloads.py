"""The five benchmark workloads: inputs built from a seed, one op, its checks.

Every workload builds a seeded synthetic jet set through data.generate_synthetic,
data.save_csv and data.load_csv, and a weight file through model.save_weights
and model.load_weights, so set-up covers the file paths a user's run takes.
Each op's output is checked outside its timed interval:

* against the digest recorded for (workload, seed) in digests.json at the
  seed commit or, for a seed with no record, against the untimed warm-up op;
* and, on the warm-up output for every seed, by an independent per-jet
  reference (the row-at-a-time attention reference and dense arithmetic
  written out below), so a seed with no record still has its bits checked.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# Data sizes are constants, never derived from the clock, so a seed fixes the
# bits. They are chosen so that a 12 s run holds at least five ops.
INFER_JETS = 10_000
WIDE_JETS = 300        # the >60-bit object path costs about 5 ms per jet
SWEEP_JETS = 600       # one 46-pass sweep takes about 2.5 s at jobs=2
STREAM_JETS = 2_000    # more jets than one run streams (about 11 ms each)
SWEEP_INT_BITS = (6, 7, 8, 9, 10)
SWEEP_FRAC_BITS = tuple(range(0, 17, 2))
SWEEP_PASSES = len(SWEEP_INT_BITS) * len(SWEEP_FRAC_BITS) + 1  # plus the float reference
SIMD_FLAGS = {"sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512bw",
              "avx512vl", "avx512_vnni", "avx512_fp16"}
MODULES = ("fxp", "data", "model", "attention", "softmax", "layers", "metrics", "sweeps")


class MissingProgram(RuntimeError):
    """The fxattn sources are not in this checkout."""


def load_fxattn(root: Path) -> dict:
    """Import fxattn's modules from root/src and from nowhere else."""
    src = (root / "src").resolve()
    if not (src / "fxattn" / "__init__.py").is_file():
        raise MissingProgram(f"no fxattn package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"fxattn.{name}") for name in MODULES}
    where = Path(mods["fxp"].__file__).resolve()
    if src not in where.parents:
        raise MissingProgram(f"fxattn was imported from {where}, not from {src}")
    return mods


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def digest(output) -> str:
    """sha256 of an op output: arrays by dtype, shape and bytes; sweeps by rows."""
    h = hashlib.sha256()
    if hasattr(output, "rows"):
        h.update(repr(output.rows).encode())
    else:
        h.update(f"{output.dtype}{output.shape}".encode())
        h.update(output.tobytes())
    return h.hexdigest()


def platform() -> dict:
    """What float64 bits depend on: numpy's version and the CPU's vector units
    (numpy and its BLAS pick exp/log and matmul kernels by them)."""
    import numpy
    model, flags = "", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and not model:
                model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    return {"numpy": numpy.__version__, "cpu_model": model,
            "simd": sorted(flags & SIMD_FLAGS)}


def recorded_digest(workload: str, seed: int) -> str | None:
    """The seed commit's digest, if one was recorded on this platform.

    The jets are generated in float64, so on another platform every workload
    falls back to the warm-up digest plus the per-jet reference check."""
    if not DIGESTS.is_file():
        return None
    doc = json.loads(DIGESTS.read_text())
    if doc["platform"] != platform():
        return None
    return doc["digests"].get(workload, {}).get(str(seed))


def build_inputs(fx: dict, seed: int, work: Path, n_jets: int, analytic: bool):
    """Seeded jets and weights, each through its file round trip."""
    import numpy as np
    data, model = fx["data"], fx["model"]
    dataset = data.generate_synthetic(n_jets, seed=seed)
    data.save_csv(work / "jets.csv", dataset)
    dataset = data.load_csv(work / "jets.csv")
    cfg = model.ModelConfig()
    if analytic:
        weights = model.make_analytic_weights(cfg)
    else:
        weights = model.random_weights(cfg, np.random.default_rng([seed, 1]))
    model.save_weights(work / "weights.json", cfg, weights)
    cfg, weights = model.load_weights(work / "weights.json")
    return dataset, cfg, weights


def softmax_configs(fx: dict, cfg, fmt):
    """(score softmax, output softmax) table configs, as forward_batch builds them."""
    make = fx["softmax"].make_softmax_config
    return tuple(make(fmt, n_max=n + 1, table_size=cfg.softmax_table_size,
                      exp_lo=cfg.softmax_exp_lo)
                 for n in (cfg.seq_len, cfg.num_classes))


def reference_probs(fx: dict, cfg, weights, jet, fmt):
    """One jet through the model row by row.

    Attention goes through run_mha_reference; every dense layer is W v + b
    on one row at a time with fxp's exact-accumulation kernels. In fixed mode
    this must equal forward_batch bit for bit.
    """
    import numpy as np
    fxp, softmax = fx["fxp"], fx["softmax"]
    fixed = fmt is not None
    if fixed:
        qw = fx["model"].quantize_weights(weights, fmt)
        h = fxp.quantize_array(jet, fmt)
        score_cfg, out_cfg = softmax_configs(fx, cfg, fmt)
    else:
        qw, h, score_cfg, out_cfg = weights, np.asarray(jet, dtype=np.float64), None, None

    def add(a, b):
        return fxp.fx_add_array(a, b) if fixed else a + b

    def dense(layer, v):
        pre = add(fxp.fx_matmul(layer.weights, v) if fixed else layer.weights @ v,
                  layer.bias)
        kind = layer.activation.value
        if kind == "relu":
            return fxp.fx_relu(pre) if fixed else np.maximum(pre, 0.0)
        if kind == "softmax":
            return softmax.softmax_lut(out_cfg, pre) if fixed else softmax.softmax_exact(pre)
        return pre

    for block in qw.blocks:
        h = add(h, fx["attention"].run_mha_reference(cfg.encoder.mha, block.mha,
                                                     score_cfg, h))
        ff = [dense(block.ff2, dense(block.ff1, h[t])) for t in range(cfg.seq_len)]
        h = add(h, fxp.FxArray(np.stack([r.raw for r in ff]), fmt) if fixed
                else np.stack(ff))
    v = fxp.FxArray(h.raw.reshape(-1), fmt) if fixed else h.reshape(-1)
    for layer in qw.head:
        v = dense(layer, v)
    probs = dense(qw.output, v)
    return probs.to_float() if fixed else probs


def same_probs(got, want, fixed: bool) -> bool:
    """Bit-equal in fixed mode; float mode allows summation-order rounding."""
    import numpy as np
    if fixed:
        return bool(np.array_equal(got, want))
    return bool(np.allclose(got, want, rtol=1e-9, atol=1e-12))


def sample_jets(seed: int, n: int, k: int) -> list[int]:
    import numpy as np
    return sorted(np.random.default_rng([seed, 2]).choice(n, size=k, replace=False).tolist())


class Workload:
    """One workload: set-up, the timed op, and the checks on its output."""

    name = ""
    jobs = 0
    reference_jets = 2

    def __init__(self, n_jets: int):
        self.n_jets = n_jets
        self.expected = None

    @property
    def jets_per_op(self) -> int:
        return self.n_jets

    def setup(self, fx: dict, seed: int, work: Path) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def recordable(self, output):
        """What digests.json records for this workload."""
        return output

    def reference_ok(self, output) -> bool:
        raise NotImplementedError

    def warm_check(self, output) -> bool:
        """Check the warm-up output and fix the digest later ops must match."""
        got = digest(self.recordable(output))
        self.expected = recorded_digest(self.name, self.seed) or got
        return got == self.expected and self.reference_ok(output)

    def check(self, output) -> bool:
        return digest(output) == self.expected


class Infer(Workload):
    """One model.forward_batch pass over the whole jet set."""

    def __init__(self, name: str, n_jets: int, spec: str | None, reference_jets: int = 4):
        super().__init__(n_jets)
        self.name, self.spec, self.reference_jets = name, spec, reference_jets

    def setup(self, fx, seed, work):
        self.fx, self.seed = fx, seed
        dataset, self.cfg, self.weights = build_inputs(fx, seed, work, self.n_jets,
                                                       analytic=False)
        self.x = dataset.feature_tensor()
        self.fmt = fx["fxp"].parse_format(self.spec) if self.spec else None

    def op(self):
        return self.fx["model"].forward_batch(self.cfg, self.weights, self.x, fmt=self.fmt)

    def reference_ok(self, output) -> bool:
        return all(
            same_probs(output[i], reference_probs(self.fx, self.cfg, self.weights,
                                                  self.x[i], self.fmt),
                       self.fmt is not None)
            for i in sample_jets(self.seed, self.n_jets, self.reference_jets))


class SweepPaper(Workload):
    """One sweeps.sweep_precision call over the paper's 45-point grid."""

    name = "sweep-paper"

    def __init__(self, n_jets: int, jobs: int):
        super().__init__(n_jets)
        self.jobs = jobs

    @property
    def jets_per_op(self) -> int:
        return self.n_jets * SWEEP_PASSES

    def setup(self, fx, seed, work):
        self.fx, self.seed = fx, seed
        self.dataset, self.cfg, self.weights = build_inputs(fx, seed, work, self.n_jets,
                                                            analytic=True)

    def op(self):
        return self.fx["sweeps"].sweep_precision(
            self.cfg, self.weights, self.dataset, list(SWEEP_INT_BITS),
            list(SWEEP_FRAC_BITS), jobs=self.jobs)

    def reference_ok(self, output) -> bool:
        """Grid order, then one seed-chosen point recomputed in this process:
        its per-class AUCs, and sampled jets against the per-jet reference."""
        fx = self.fx
        grid = [(i, f) for i in SWEEP_INT_BITS for f in SWEEP_FRAC_BITS]
        if [tuple(row[:2]) for row in output.rows] != grid:
            return False
        k = self.seed % len(grid)
        fmt = fx["fxp"].FxFormat(*grid[k])
        x = self.dataset.feature_tensor()
        probs = fx["model"].forward_batch(self.cfg, self.weights, x, fmt=fmt)
        aucs = fx["metrics"].one_vs_rest_aucs(probs, self.dataset.labels(), fx["data"].LABELS)
        if tuple(output.rows[k][2:5]) != tuple(aucs[c] for c in fx["data"].LABELS):
            return False
        return all(
            same_probs(probs[i], reference_probs(fx, self.cfg, self.weights, x[i], fmt), True)
            for i in sample_jets(self.seed, self.n_jets, self.reference_jets))


class StreamQ20(Workload):
    """One jet through attention.run_mha_streaming with block 0's weights."""

    name = "stream-q20"

    @property
    def jets_per_op(self) -> int:
        return 1

    def setup(self, fx, seed, work):
        self.fx, self.seed = fx, seed
        dataset, cfg, weights = build_inputs(fx, seed, work, self.n_jets, analytic=False)
        attention, fxp = fx["attention"], fx["fxp"]
        self.fmt = fxp.parse_format("fixed<20,10>")
        self.mcfg = cfg.encoder.mha
        self.mha = attention.quantize_mha_weights(weights.blocks[0].mha, self.fmt)
        self.softmax_cfg = softmax_configs(fx, cfg, self.fmt)[0]
        self.x = fxp.quantize_array(dataset.feature_tensor(), self.fmt)
        self.batch = None
        self.next = 0

    def op(self):
        self.last = i = self.next
        self.next = (i + 1) % self.n_jets
        return self.fx["attention"].run_mha_streaming(
            self.mcfg, self.mha, self.softmax_cfg, self.fx["fxp"].FxArray(self.x.raw[i], self.fmt))

    def recordable(self, output):
        """The batch path over every jet; each streamed jet must equal its row.
        Built after set-up is timed, since it is checking work."""
        if self.batch is None:
            self.batch = self.fx["attention"].mha_forward_batch(
                self.mcfg, self.mha, self.softmax_cfg, self.x).raw
        return self.batch

    def reference_ok(self, output) -> bool:
        import numpy as np
        return bool(np.array_equal(output.raw, self.batch[self.last]))

    def warm_check(self, output) -> bool:
        # a batch output off its recorded digest fails every later jet too
        self.batch_ok = super().warm_check(output)
        return self.batch_ok

    def check(self, output) -> bool:
        return self.batch_ok and self.reference_ok(output)


def make(name: str) -> Workload:
    """A fresh instance of a named workload at its benchmark size."""
    if name == "infer-q20":
        return Infer(name, INFER_JETS, "fixed<20,10>")
    if name == "infer-float":
        return Infer(name, INFER_JETS, None)
    if name == "infer-wide":
        return Infer(name, WIDE_JETS, "fixed<64,32>", reference_jets=2)
    if name == "sweep-paper":
        return SweepPaper(SWEEP_JETS, jobs=min(2, nproc()))
    if name == "stream-q20":
        return StreamQ20(STREAM_JETS)
    raise KeyError(name)


WORKLOADS = ("infer-q20", "infer-float", "infer-wide", "sweep-paper", "stream-q20")
