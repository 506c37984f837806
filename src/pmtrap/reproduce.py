"""Self-contained synthetic campaigns for the headline quantities.

Each target computes a CSV data table (its header and rows) and a JSON
summary; ``run_target`` writes them as ``{name}.csv`` and
``{name}_summary.json`` and returns the summary dict.  Targets:

    appA_efficiency  mirror collection fractions for linear/circular dipoles
    appB_pmin        single-rod escape power from the field-factor calibration
    appC_gamma       single-rod gas damping rate
    appE_rate        detected count-rate budget, closed form vs Monte Carlo
    fig1a            g2(0) versus escape power with pattern classification
    fig1b            damping rate versus escape power and its power-law exponent
    fig2b            apparent linear-dipole fraction versus trap power

fig1a's photon streams (one per cluster size, into ``g2_zero``) and fig1b's
Langevin traces (one per size, into the streamed Welch PSD) are consumed
two at a time, on this thread and a helper (``_threads.pairs``).  Each
stream has its own generator, so the tables are those of a serial run; a
failure is the one a serial run would raise first.  fig1b's spectra are
streamed, never collected: their window mean is the first block's, which
moves its digits by about one ulp from the collected trace's.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import (_threads, analysis, io_formats, langevin, mirror_optics, photon_emitter,
               trap_mechanics)
from .config import ExperimentConfig
from .errors import UndefinedResultError
from .seeding import rng_for

__all__ = ["REPRODUCE_TARGETS", "run_target"]

# fitted-exponent reference band: measured 0.48 +/- 0.03
EXPONENT_BAND = (0.45, 0.51)


def target_appA_efficiency(config: ExperimentConfig) -> tuple[str, list, dict]:
    geom = config.mirror
    linear = mirror_optics.collection_efficiency("linear", geom)
    circular = mirror_optics.collection_efficiency("circular", geom)
    summary = {"linear": linear, "circular": circular,
               "reference": {"linear": 0.94, "circular": 0.76}}
    return ("dipole_kind,collection_fraction",
            [("linear", linear), ("circular", circular)], summary)


def target_appB_pmin(config: ExperimentConfig) -> tuple[str, list, dict]:
    physics = {n: config.cluster_physics(n_rods=n)
               for n in (1, 2, 4, 8, 16, 27, 32, 64)}
    summary = {"P_min_mW": physics[1].p_min * 1e3,
               "P_min_mW_16_rods": physics[16].p_min * 1e3,
               "polarizability_Cm2_per_V": physics[1].alpha}
    return ("n_rods,p_min_mW", [(n, ph.p_min * 1e3) for n, ph in physics.items()],
            summary)


def target_appC_gamma(config: ExperimentConfig) -> tuple[str, list, dict]:
    rows = []
    for n in (1, 4, 16, 64):
        cluster = trap_mechanics.ClusterSample(n_rods=n, rod=config.rod,
                                               material=config.material)
        geo = trap_mechanics.cluster_damping_rate(cluster, config.gas)
        full = trap_mechanics.cluster_damping_rate(cluster, config.gas,
                                                   slip_at_single_rod=False)
        rows.append((n, geo.hz, full.hz))
    gamma = config.cluster_physics(n_rods=1).gamma
    summary = {"gamma_over_2pi_hz": gamma / (2.0 * np.pi), "gamma_rad_per_s": gamma,
               "reference_hz": 2.0e6}
    return ("n_rods,gamma_over_2pi_hz_geometric,gamma_over_2pi_hz_full_slip", rows,
            summary)


def target_appE_rate(config: ExperimentConfig) -> tuple[str, list, dict]:
    emitter = photon_emitter.EmitterModel(
        n_rods=config.emitter.n_rods, quantum_yield=config.emitter.quantum_yield,
        auger_pair_prob=1.0, blink_mode="steady")
    estimate = photon_emitter.expected_count_rate(config.excitation, emitter,
                                                  config.detection)
    if estimate.rate == 0:
        raise UndefinedResultError("the closed-form rate is 0, so the "
                                   "Monte Carlo rate has no relative difference")
    mc_duration = 10.0  # 1e7 pulses at the default repetition rate
    n_pulses, detections = photon_emitter.detection_blocks(
        config.excitation, emitter, config.detection, mc_duration,
        seed=int(rng_for(config.seed, "appE-rate").integers(2**31)))
    # the detected photons counted block by block; the rate needs no channels
    # or timestamps, and the stream is never held whole
    mc_rate = sum(int(counts.sum()) for _, counts in detections) / mc_duration

    chain = config.detection
    budget = [
        ("repetition_rate_hz", config.excitation.repetition_rate),
        ("apd_quantum_efficiency", chain.apd_quantum_efficiency),
        ("setup_transmission", chain.setup_transmission),
        ("mirror_reflectivity", chain.mirror.reflectivity),
        ("saturation_factor", 1.0 - np.exp(-config.excitation.mean_excitons)),
        ("quantum_yield", emitter.quantum_yield),
        ("collection_for_a_pi", chain.collection_efficiency),
        ("closed_form_rate_hz", estimate.rate),
        ("monte_carlo_rate_hz", mc_rate),
    ]
    summary = {
        "rate_hz": estimate.rate, "uncertainty_hz": estimate.uncertainty,
        "monte_carlo_rate_hz": mc_rate,
        "relative_difference": abs(mc_rate / estimate.rate - 1.0),
        "n_pulses": n_pulses,
        "reference_hz": 125e3, "reference_uncertainty_hz": 14e3,
    }
    return "factor,value", budget, summary


def target_fig1b(config: ExperimentConfig) -> tuple[str, list, dict]:
    sizes = (4, 6, 8, 12, 16, 24, 32, 48, 64)
    # campaign trap width: keep the smallest clusters underdamped
    physics = [config.cluster_physics(n_rods=n, w_z=120e-9) for n in sizes]
    traces = [langevin.axial_motion_blocks(
        ph.stiffness, ph.gamma, ph.mass, config.gas.temperature,
        langevin.SimConfig(time_step=3e-9, duration=2**21 * 3e-9,
                           seed=int(rng_for(config.seed, "fig1b", n).integers(2**31))))
        for n, ph in zip(sizes, physics)]
    spectra = _threads.pairs(
        lambda z: analysis.stream_power_spectral_density(z, segment_length=2**15), traces)
    fits = [analysis.fit_lorentzian(spectrum) for spectrum in spectra]

    rows = [(n, ph.p_min * 1e3, fit.gamma / (2 * np.pi), ph.gamma / (2 * np.pi),
             *fit.width_ci95) for n, ph, fit in zip(sizes, physics, fits)]

    fit = trap_mechanics.gamma_pmin_exponent(
        [(ph.p_min, cell.gamma) for ph, cell in zip(physics, fits)])
    summary = {
        "exponent": fit.exponent, "std_error": fit.std_error,
        "ci95": list(fit.ci95),
        "reference_band": list(EXPONENT_BAND),
        "within_or_adjacent": bool(
            fit.ci95[1] >= EXPONENT_BAND[0] and fit.ci95[0] <= EXPONENT_BAND[1]),
    }
    return ("n_rods,p_min_mW,gamma_fit_over_2pi_hz,gamma_model_over_2pi_hz,"
            "width_ci95_low_hz,width_ci95_high_hz", rows, summary)


def target_fig1a(config: ExperimentConfig) -> tuple[str, list, dict]:
    rng = rng_for(config.seed, "fig1a")
    sizes = sorted(set(np.round(np.exp(
        rng.uniform(np.log(2), np.log(80), 24))).astype(int).tolist()))
    period = 1.0 / config.excitation.repetition_rate
    streams, orientations = [], []
    for n in sizes:
        emitter = photon_emitter.EmitterModel(
            n_rods=n, quantum_yield=config.emitter.quantum_yield,
            auger_pair_prob=None,
            blink_mode="steady")
        streams.append(photon_emitter.time_tag_blocks(
            config.excitation, emitter, config.detection, duration=1.0,
            seed=int(rng.integers(2**31))))
        # alignment model: small clusters align with the axial field, large
        # clusters freeze in with a random tilt, drawn after the size's seed
        beta = 0.0 if n <= 27 else np.radians(rng.normal(35.0, 10.0))
        orientations.append(np.array([np.sin(beta), 0.0, np.cos(beta)]))
    g2s = _threads.pairs(lambda tags: analysis.g2_zero(tags, period), streams)

    rows = []
    class_counts = {"symmetric": 0, "asymmetric": 0, "inconclusive": 0}
    asymmetries = {}  # per orientation: every aligned cluster shares one image
    for n, orientation, g2 in zip(sizes, orientations, g2s):
        key = tuple(orientation.tolist())
        if key not in asymmetries:
            asymmetries[key] = mirror_optics.asymmetry_metric(
                mirror_optics.general_dipole_image(
                    orientation / np.linalg.norm(orientation), config.mirror))
        asym = asymmetries[key]
        class_counts[asym.classification] += 1
        rows.append((n, config.cluster_physics(n_rods=n).p_min * 1e3, g2.g2, g2.error,
                     asym.score, asym.classification))

    g2_values = [r[2] for r in rows]
    summary = {
        "n_samples": len(rows),
        "g2_min": min(g2_values), "g2_max": max(g2_values),
        "class_counts": class_counts,
        "reference_band": [0.15, 0.44],
    }
    return ("n_rods,p_min_mW,g2_zero,g2_error,asymmetry_score,classification", rows,
            summary)


def target_fig2b(config: ExperimentConfig) -> tuple[str, list, dict]:
    alpha1 = trap_mechanics.polarizability(config.rod, config.material)
    intrinsic = 0.9
    anisotropy_fraction = 0.5
    sizes = (4, 8, 16)
    powers = np.geomspace(1e-3, 0.36, 25)
    rows = []
    for p in powers:
        row = [p * 1e3]
        for n in sizes:
            row.append(langevin.apparent_a_pi(
                float(p), intrinsic, anisotropy_fraction * n * alpha1,
                config.gas.temperature, config.trap.field_factor))
        rows.append(tuple(row))

    first = [r[1] for r in rows]
    summary = {
        "intrinsic_a_pi": intrinsic,
        "anisotropy_fraction": anisotropy_fraction,
        "low_power_limit": intrinsic / 3.0,
        "monotone": bool(all(np.all(np.diff([r[i] for r in rows]) > 0)
                             for i in range(1, len(sizes) + 1))),
        "a_pi_range_smallest_cluster": [min(first), max(first)],
    }
    return "power_mW," + ",".join(f"a_pi_n{n}" for n in sizes), rows, summary


REPRODUCE_TARGETS = {
    "appA_efficiency": target_appA_efficiency,
    "appB_pmin": target_appB_pmin,
    "appC_gamma": target_appC_gamma,
    "appE_rate": target_appE_rate,
    "fig1a": target_fig1a,
    "fig1b": target_fig1b,
    "fig2b": target_fig2b,
}


def run_target(name: str, config: ExperimentConfig, out_dir) -> dict:
    if name not in REPRODUCE_TARGETS:
        raise KeyError(f"unknown figure id {name!r}; "
                       f"choose from {sorted(REPRODUCE_TARGETS)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header, rows, summary = REPRODUCE_TARGETS[name](config)
    io_formats.write_csv(out_dir / f"{name}.csv", header, rows, "%s")
    io_formats.write_json(out_dir / f"{name}_summary.json", summary)
    return summary
