"""Which layer boundaries the traced run instruments, and the per-layer
metrics taken from them.

Each per-layer metric has a home workload, the one whose shapes it is
measured at, so a metric means the same thing whichever workload the traced
run was asked for.  Values are the median seconds per call (inclusive of
child spans) unless noted.
"""

from __future__ import annotations

import importlib

import numpy as np

from corrldp.data import CorrelationModel

from .tracing import median_or_none

SECONDS, PER_PARENT, COUNT = "seconds", "per_parent", "count"

# metric name -> (home workload, span name, how to reduce, count key, unit)
PER_LAYER = {
    "data.fit_s": ("population", "data.fit", SECONDS, None, "s"),
    "data.synth_s": ("population", "data.synth", SECONDS, None, "s"),
    "data.low_mask_s": ("population", "data.low_mask", SECONDS, None, "s"),
    "data.model_write_s": ("cli-files", "data.model_write", SECONDS, None, "s"),
    "data.model_read_s": ("cli-files", "data.model_read", SECONDS, None, "s"),
    "data.genotype_read_s": ("cli-files", "data.genotype_read", SECONDS, None, "s"),
    "data.genotype_write_s": ("cli-files", "data.genotype_write", SECONDS, None, "s"),
    "data.model_file_bytes": ("cli-files", "cli.corr", COUNT, "model_file_bytes", "bytes"),
    "rr.perturb_s": ("grid", "rr.perturb", SECONDS, None, "s"),
    "mechanism.perturb_population_s": ("population", "mechanism.perturb_population", SECONDS, None, "s"),
    "attack.attack_population_s": ("population", "attack.attack_population", SECONDS, None, "s"),
    # one replay per reported row; summed over the rows of one attack call
    "attack.replay_s": ("grid", "attack.replay", PER_PARENT, None, "s"),
    "attack.postprocess_s": ("grid", "attack.postprocess", SECONDS, None, "s"),
    "attack.postprocess_cells_changed": ("grid", "attack.postprocess", COUNT, "cells_changed", "count"),
    "ordering.exact_solve_s": ("order", "ordering.exact_solve", SECONDS, None, "s"),
    "ordering.exact_eval_s": ("order", "ordering.exact_eval", SECONDS, None, "s"),
    "ordering.greedy_share_s": ("order", "ordering.greedy_share", SECONDS, None, "s"),
    # memo size of the exact solver, reported while the solver exposes it
    "ordering.exact_states": ("order", "ordering.exact_solve", COUNT, "exact_states", "count"),
    "experiments.trial_s": ("grid", "experiments.trial", SECONDS, None, "s"),
    "cli.gen_s": ("cli-files", "cli.gen", SECONDS, None, "s"),
    "cli.corr_s": ("cli-files", "cli.corr", SECONDS, None, "s"),
    "cli.perturb_s": ("cli-files", "cli.perturb", SECONDS, None, "s"),
    "cli.attack_s": ("cli-files", "cli.attack", SECONDS, None, "s"),
    "cli.eval_s": ("cli-files", "cli.eval", SECONDS, None, "s"),
}


def _cells_changed(args, kwargs, result):
    return {"cells_changed": int(np.count_nonzero(np.asarray(args[0]) != result))}


def instrument(tracer) -> None:
    """Wrap the calls corrldp's layers make into each other."""
    # the package re-exports a function named ``attack``, so fetch modules by name
    attack, cli, experiments = (
        importlib.import_module(f"corrldp.{name}") for name in ("attack", "cli", "experiments")
    )
    for name, span in (
        ("run_single_trial", "experiments.trial"),
        ("generate_synthetic_population", "data.synth"),
        ("compute_correlation_model", "data.fit"),
        ("rr_perturb", "rr.perturb"),
        ("perturb_population", "mechanism.perturb_population"),
        ("attack_population", "attack.attack_population"),
    ):
        tracer.instrument(experiments, name, span)
    tracer.instrument(experiments, "rr_postprocess_population", "attack.postprocess", _cells_changed)
    tracer.instrument(attack, "recover_possible_inputs", "attack.replay")
    for name, span in (
        ("load_genotype_matrix", "data.genotype_read"),
        ("save_genotype_matrix", "data.genotype_write"),
        ("generate_synthetic_population", "data.synth"),
        ("compute_correlation_model", "data.fit"),
        ("perturb_population", "mechanism.perturb_population"),
        ("attack_population", "attack.attack_population"),
    ):
        tracer.instrument(cli, name, span)
    tracer.instrument(CorrelationModel, "to_json", "data.model_write")
    tracer.instrument(CorrelationModel, "from_json", "data.model_read")


def per_layer_metrics(tracer) -> dict[str, dict]:
    metrics = {}
    for metric, (home, span, how, key, unit) in PER_LAYER.items():
        if how == SECONDS:
            values = tracer.durations(home, span)
        elif how == PER_PARENT:
            values = tracer.durations_per_parent(home, span)
        else:
            values = tracer.counts(home, span, key)
        value = median_or_none(values)
        if value is not None:
            metrics[metric] = {"value": float(value), "unit": unit}
    return metrics
