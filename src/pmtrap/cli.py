"""Command-line entry points: simulate, analyze, reproduce, validate-config.

Exit codes: 0 success, 2 invalid configuration or usage, 3 I/O failure,
4 missing or corrupt dataset artifact, 5 analysis failure (too little data
for an estimate, an undefined statistic, or a fit that found no peak or did
not converge).  The default output root comes from
the PMTRAP_OUTPUT_ROOT environment variable (falling back to the current
directory); dataset directories default to the config's ``output_dir``
underneath it.

``simulate`` and ``analyze`` run the photon stream (the time tags, and
``g2_zero`` over them) on a helper thread beside the motion stream (the
detector trace, and its spectrum); ``analyze`` lends that helper to the
spectrum once ``g2_zero`` is done, ``simulate`` generates the Langevin
trace one block ahead on a second helper, and ``reproduce`` runs fig1a's
and fig1b's cells two at a time.  All of it goes through
``_threads``, which has no setting: the data are those of a serial run,
and of two failures a corrupt artifact is raised first, then the motion
stream's.  ``simulate`` writes the three aperture images of one
``mirror_optics.aperture_images`` call.  A failed ``simulate`` may leave
``tags.bin`` beside a partial ``detector.ts``, but never ``manifest.json``;
``analyze`` and ``reproduce`` create their output directory at their first
write, so one that fails before it leaves none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import _threads, analysis, io_formats, langevin, mirror_optics, photon_emitter
from .config import (
    ExperimentConfig,
    default_config_yaml,
    load_config,
    parse_config,
    verify_manifest,
    write_manifest,
)
from .errors import (
    ConfigError,
    FitError,
    InsufficientDataError,
    MissingArtifactError,
    UndefinedResultError,
)
from .reproduce import REPRODUCE_TARGETS, run_target
from .seeding import rng_for

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MISSING_ARTIFACT = 4
EXIT_ANALYSIS = 5
# a statistic that cannot be computed from the data: exit 5
_ANALYSIS_ERRORS = (FitError, InsufficientDataError, UndefinedResultError)

# the artifacts analyze_dataset parses; each reader checks its manifest sha256
ANALYZED_ARTIFACTS = ("tags.bin", "detector.ts", "image_total.img")


def simulate_dataset(config: ExperimentConfig, out_dir) -> dict:
    """Generate the full synthetic dataset; manifest.json is written last.

    The readout is written on this thread while its Langevin trace is
    generated one block ahead on a helper (``_threads.ahead``) and the
    photon stream is written on another (``_threads.both``); a failure of
    either stream is raised once both are done, the readout's first.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    physics = config.cluster_physics()
    motion = langevin.axial_motion_blocks(physics.k_z, physics.gamma,
                                          physics.mass, config.gas.temperature,
                                          config.simulation)
    tags = photon_emitter.time_tag_blocks(
        config.excitation, config.emitter, config.detection,
        config.acquisition.duration, seed=config.seed)

    # both streams are written block by block as they are generated; they
    # are built before a helper starts (see ``_threads``)
    with _threads.ahead(motion) as trace:
        readout = langevin.detector_blocks(trace, config.simulation)
        digests = dict(zip(("detector.ts", "tags.bin"), _threads.both(
            partial(io_formats.write_time_series, out_dir / "detector.ts", readout),
            partial(io_formats.write_time_tags, out_dir / "tags.bin", tags))))

    # aperture images at the configured mixture, with camera noise scaled to
    # the noiseless total's maximum
    images = mirror_optics.aperture_images(config.detection.a_pi, config.mirror,
                                           n_pixels=config.image.n_pixels,
                                           half_extent=config.image.half_extent)
    if config.image.noise_rms_fraction > 0:
        rng = rng_for(config.seed, "image-noise")
        scale = config.image.noise_rms_fraction * float(images[0].pixels.max())
        for img in images:
            img.pixels = np.clip(
                img.pixels + rng.normal(0.0, scale, img.pixels.shape), 0.0, None)
    for img in images:
        name = f"image_{img.channel}.img"
        digests[name] = io_formats.write_image(out_dir / name, img)

    manifest = write_manifest(out_dir, config, digests,
                              elapsed_s=time.time() - started)
    return {
        "out_dir": str(out_dir),
        "n_events": tags.n_events,
        "gamma_over_2pi_hz": physics.gamma / (2 * np.pi),
        "omega_over_2pi_hz": physics.omega / (2 * np.pi),
        "p_min_w": physics.p_min,
        "config_hash": manifest.config_hash,
    }


def _profile_in_aperture(image: mirror_optics.ApertureImage) -> mirror_optics.RadialProfile:
    """Azimuthal average restricted to the unclipped annulus."""
    profile = mirror_optics.azimuthal_average(image)
    bore = image.metadata.get("bore_radius_f", 0.0)
    rim = image.metadata.get("rim_radius_f", np.inf)
    pitch = image.pixel_pitch
    keep = (profile.radii > bore + pitch) & (profile.radii < rim - pitch)
    return mirror_optics.RadialProfile(
        radii=profile.radii[keep], intensities=profile.intensities[keep],
        counts=profile.counts[keep], variances=profile.variances[keep])


def analyze_dataset(dataset_dir, out_dir=None,
                    max_lag: int = analysis.DEFAULT_MAX_LAG) -> dict:
    """Run the measurement pipeline on a simulated dataset directory.

    ``max_lag`` is the side-peak pulse-lag range that normalizes g2(0).
    The headers are checked here; then ``g2_zero`` reads the tags on a
    helper thread while this one reads the detector trace into its
    spectrum (``_threads.both``).  The helper is lent to the spectrum: of
    its runs of segments, this thread transforms the even ones, and the
    helper the odd ones once ``g2_zero`` is done (this thread takes back
    any the helper has not started when it needs them).  The runs' sums
    are added here in run order, so the spectrum is bit-identical to a
    serial one.  The tags are read to their end whatever ``g2_zero`` does,
    so of two failures a corrupt ``detector.ts``, then a corrupt
    ``tags.bin``, outranks a trace too short for the spectrum, which
    outranks ``g2_zero``'s own errors.
    """
    dataset_dir = Path(dataset_dir)
    out_dir = dataset_dir if out_dir is None else Path(out_dir)
    artifacts = verify_manifest(dataset_dir, parsed=ANALYZED_ARTIFACTS)["artifacts"]
    sha256 = {name: artifacts[name]["sha256"] for name in ANALYZED_ARTIFACTS}
    tags = io_formats.read_time_tags(dataset_dir / "tags.bin", sha256["tags.bin"])
    if "repetition_rate" not in tags.metadata:
        raise MissingArtifactError("artifact corrupt (header metadata lacks "
                                   f"repetition_rate): {dataset_dir / 'tags.bin'}")
    image = io_formats.read_image(dataset_dir / "image_total.img",
                                  sha256["image_total.img"])
    if image.channel != "total":
        raise MissingArtifactError(f"artifact corrupt (header channel {image.channel!r}, "
                                   f"not 'total'): {dataset_dir / 'image_total.img'}")
    series = io_formats.read_time_series(dataset_dir / "detector.ts",
                                         sha256["detector.ts"])

    # one pass over the tags feeds both the g2 histogram and the rate bins;
    # the pass reaches the end of tags.bin, and so its checks, whatever
    # g2_zero does (at --max-lag 0 it fails before reading)
    rates = analysis.RateBins(tags.duration)

    def photons():
        try:
            return analysis.g2_zero(tags, 1.0 / tags.metadata["repetition_rate"],
                                    max_lag=max_lag, rates=rates)
        finally:
            for _ in tags.blocks:
                pass
    spectrum, g2 = _threads.both(
        lambda helper: analysis.stream_power_spectral_density(series, helper=helper),
        photons, lend=True)
    blink = analysis.blink_analysis(rates)
    lorentzian = analysis.fit_lorentzian(spectrum)
    profile = _profile_in_aperture(image)
    dipole_fit = mirror_optics.fit_dipole_fraction(profile)
    asymmetry = mirror_optics.asymmetry_metric(image)

    results = {
        "g2": {"value": g2.g2, "error": g2.error,
               "zero_lag_counts": g2.zero_lag_counts},
        "blink": {
            "classification": blink.classification,
            "grey_mean_rate_hz": blink.grey_mean_rate,
            "grey_rms_width_hz": blink.grey_rms_width,
            "peak_rates_hz": blink.peak_rates.tolist(),
            "burst_fit_r2": blink.burst_fit_r2,
        },
        "motion": {
            "gamma_over_2pi_hz": lorentzian.width,
            "gamma_rad_per_s": lorentzian.gamma,
            "center_hz": lorentzian.center,
            "width_ci95_hz": list(lorentzian.width_ci95),
        },
        "dipole_fraction": {
            "a_pi": dipole_fit.a_pi,
            "std_error": dipole_fit.a_pi_std_error,
            "residual_norm": dipole_fit.residual_norm,
        },
        "asymmetry": {"score": asymmetry.score,
                      "classification": asymmetry.classification},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    io_formats.write_json(out_dir / "results.json", results)

    # the bytes np.savetxt writes
    io_formats.write_csv(out_dir / "spectrum.csv", "frequency_hz,psd", np.column_stack(
        (spectrum.frequencies, spectrum.densities)), "%.18e")
    io_formats.write_csv(out_dir / "g2_histogram.csv", "pulse_lag,coincidences",
                         np.column_stack((g2.lags, g2.coincidences)), "%d")
    io_formats.write_csv(out_dir / "blink_histogram.csv", "counts_per_bin,occurrences",
                         np.column_stack((blink.count_values, blink.occurrences)), "%d")
    io_formats.write_csv(out_dir / "radial_profile.csv", "radius_f,intensity,n_pixels",
                         np.column_stack((profile.radii, profile.intensities,
                                          profile.counts)), "%.17g")
    return results


def _load_config_arg(args) -> ExperimentConfig:
    if args.config is not None:
        config = load_config(args.config)
    else:
        config = parse_config({})
    if getattr(args, "seed", None) is not None:
        raw = dict(config.raw)
        raw["seed"] = args.seed
        config = parse_config(raw)
    return config


def _output_root() -> Path:
    return Path(os.environ.get("PMTRAP_OUTPUT_ROOT", "."))


def _resolve_out(args, config: ExperimentConfig) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    return _output_root() / config.output_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pmtrap",
        description="Simulator and analysis toolkit for optically trapped "
                    "rod-shaped quantum emitters in a deep parabolic mirror.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--config", help="YAML config file (default: built-in)")
    p_sim.add_argument("--seed", type=int, help="override the root seed")
    p_sim.add_argument("--out", help="dataset directory")

    p_ana = sub.add_parser("analyze", help="run the measurement pipeline")
    p_ana.add_argument("dataset", help="dataset directory with manifest.json")
    p_ana.add_argument("--out", help="results directory (default: dataset dir)")
    p_ana.add_argument("--max-lag", type=int, default=analysis.DEFAULT_MAX_LAG,
                       help="side-peak lag range for g2 normalization")

    p_rep = sub.add_parser("reproduce", help="run a synthetic campaign")
    p_rep.add_argument("--figure", required=True,
                       choices=sorted(REPRODUCE_TARGETS) + ["all"])
    p_rep.add_argument("--config", help="YAML config file (default: built-in)")
    p_rep.add_argument("--seed", type=int)
    p_rep.add_argument("--out", help="output directory")

    p_val = sub.add_parser("validate-config", help="check a config file")
    p_val.add_argument("--config", required=True)

    p_def = sub.add_parser("default-config", help="print the default config YAML")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "simulate":
            config = _load_config_arg(args)
            out_dir = _resolve_out(args, config)
            info = simulate_dataset(config, out_dir)
            print(json.dumps(info, sort_keys=True, indent=2))
        elif args.command == "analyze":
            results = analyze_dataset(args.dataset, args.out, args.max_lag)
            print(json.dumps(results, sort_keys=True, indent=2))
        elif args.command == "reproduce":
            config = _load_config_arg(args)
            out_dir = Path(args.out) if args.out else (_output_root() / "reproduce")
            names = sorted(REPRODUCE_TARGETS) if args.figure == "all" else [args.figure]
            summaries = {}
            for name in names:
                # a target whose statistic cannot be computed is reported by
                # name, and the others still run
                try:
                    summaries[name] = run_target(name, config, out_dir)
                except _ANALYSIS_ERRORS as exc:
                    print(f"analysis error: {name}: {exc}", file=sys.stderr)
            if len(summaries) < len(names):
                return EXIT_ANALYSIS
            print(json.dumps(summaries if len(names) > 1 else summaries[names[0]],
                             sort_keys=True, indent=2))
        elif args.command == "validate-config":
            load_config(args.config)
            print("OK")
        elif args.command == "default-config":
            print(default_config_yaml(), end="")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for detail in exc.details:
            print(f"  - {detail}", file=sys.stderr)
        return EXIT_CONFIG
    except _ANALYSIS_ERRORS as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except ValueError as exc:
        # parameter combinations rejected by the physics layers
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
