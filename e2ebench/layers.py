"""The layers the traced benchmark pass times, shared by ``run.py`` and ``child.py``.

Kept free of ``repro`` imports so the harness can read it without the
program on its path.
"""

#: (layer, module, attribute, coarse). Coarse layers are called rarely
#: enough to be written as span records; the rest are only tallied.
LAYERS = (
    ("designs.existence", "repro.designs.catalog", "existence", False),
    ("designs.min_lambda", "repro.designs.catalog", "min_lambda", False),
    ("designs.difference_family", "repro.designs.difference_family",
     "find_difference_family", True),
    ("designs.build", "repro.designs.catalog", "build", False),
    ("subsystems.capacity_gap", "repro.core.subsystems", "capacity_gap", False),
    ("subsystems.select", "repro.core.subsystems", "select_subsystem", False),
    ("subsystems.select", "repro.core.subsystems",
     "select_combo_subsystems", False),
    ("placement.random", "repro.core.random_placement",
     "RandomStrategy.place", False),
    ("placement.random", "repro.core.random_placement",
     "UnconstrainedRandomStrategy.place", False),
    # Figures use Combo's plan (the stratum DP) far more than its layout.
    ("placement.combo", "repro.core.combo", "ComboStrategy.plan", False),
    ("placement.combo", "repro.core.combo", "ComboStrategy.place", False),
    ("placement.simple", "repro.core.simple", "SimpleStrategy.place", False),
    ("rand_analysis.pr_avail", "repro.core.rand_analysis", "pr_avail_rnd", False),
    ("intmath.log_binom_tail", "repro.util.intmath", "log_binom_tail", False),
    ("batch.attack", "repro.core.batch", "AttackEngine.attack", True),
    ("batch.kernel_build", "repro.core.batch", "make_kernel", True),
    ("batch.engine_build", "repro.core.batch", "AttackEngine.__init__", False),
    ("batch.engine_for", "repro.core.batch", "engine_for", False),
    ("batch.apply_delta", "repro.core.batch", "AttackEngine.apply_delta", False),
    ("sim.run", "repro.sim.simulator", "LifetimeSimulator.run", True),
    ("runner.run", "repro.exp.runner", "run_experiment", True),
    # Supervisor side of the process fan-out: its self time is the
    # main process waiting for workers, not busy time.
    ("runner.wait", "repro.exp.runner", "_run_sharded_pool", True),
    ("runner.wait", "repro.exp.runner", "_run_sharded_forked", True),
    ("store.append", "repro.exp.store", "RunState.append", False),
    ("store.flush", "repro.exp.store", "RunState.flush", False),
    ("store.flush", "repro.exp.store", "RunState.finalize", False),
    ("native.load", "repro.core.native", "load", True),
)

#: Deterministic counters of ``repro.obs`` read after a ``--stats`` run.
COUNTERS = (
    "attack.searches", "kernel.evaluations", "kernel.swaps",
    "sim.events", "sim.strikes", "store.cells_committed",
)
