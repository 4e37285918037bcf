"""The benchmark's layer tracer still patches and counts the library's hot paths.

``perfbench/layertrace.py`` wraps library functions by module attribute name;
a refactor that renames or drops one of them makes ``Tracer.install`` fail
here instead of in the next benchmark run.  The benchmark directory is only
imported, never written to.
"""

import sys
from pathlib import Path

from stablechaos.cli import main as cli_main

_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    import layertrace
finally:
    sys.dont_write_bytecode = _dont_write

# A tiny alpha = 0.8 sweep: drift, main jumps and heavy-tailed collateral kicks.
CONFIG = """\
[experiment]
kind = coupling-sweep
n_list = 8 16 32
alpha_minus = 0.72
eta = 0.5
replications = 2
obs_count = 2
master_seed = 5

[model]
b = tanh
beta0 = 1.0
beta1 = 0.5
f = logistic
f_lo = 0.5
f_hi = 1.1
psi = tanh
kick_c = 0.3

[law]
mode = heavy
alpha = 0.8
gamma = 0.5
beta = 0.5
big_a = 0.2
a_tilde = 0.1
"""


def test_tracer_counts_a_coupled_sweep(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIG)
    tracer = layertrace.Tracer().install()
    try:
        argv = ["coupling-sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--threads", "1"]
        assert cli_main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = layertrace.layer_metrics(tracer, 1, 0.0)
    for name in ("models.drift_calls", "particle_system.accepted", "distributions.sample_heavy_draws"):
        assert metrics[name] > 0, name
    # every measure-dependent drift reaches the sorted mean through the patched module attribute
    assert metrics["models.sorted_tanh_mean_calls"] == metrics["models.drift_calls"]
