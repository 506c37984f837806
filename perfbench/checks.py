"""Output checks: program outputs against the closed forms in model.py.

A ``model`` check compares an output with what the program's own documented
model predicts; it decides whether the outputs are correct.  A ``reference``
check compares an output with a value the paper reports; a failure there is
a disagreement between model and paper.  Only model checks count as
operations in the error rate; reference checks are printed with the run.
Every tolerance is fixed here, from the quantity's own
statistical error, before any workload output is read.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import model

Z = model.Z_TOL


class Check(NamedTuple):
    name: str
    kind: str  # "model" or "reference"
    ok: bool
    detail: str


def _within(name, kind, value, expected, tol, unit="") -> Check:
    ok = bool(math.isfinite(value) and abs(value - expected) <= tol)
    return Check(name, kind, ok,
                 f"{value:.6g}{unit} vs {expected:.6g}{unit} +- {tol:.3g}{unit}")


def dataset_checks(p: dict, simulate_info: dict, results: dict) -> list[Check]:
    """Checks of one `simulate` + `analyze` pair on config ``p``."""
    photons = model.photon_expectations(p, p["acquisition"]["duration_s"],
                                        p["cluster"]["n_rods"], blinking=True)
    motion = model.cluster_motion(p)
    width = model.lorentzian_width_expectation(p)
    dipole = model.dipole_fraction_expectation(p)
    model_hz = motion["gamma"] / (2 * math.pi)
    return [
        _within("simulate.gamma_model", "model",
                simulate_info["gamma_over_2pi_hz"], model_hz, 1e-9 * model_hz, " Hz"),
        _within("simulate.events", "model", simulate_info["n_events"],
                photons["events"], Z * photons["events_se"]),
        _within("analyze.g2", "model", results["g2"]["value"],
                photons["g2"], Z * photons["g2_se"]),
        _within("analyze.gamma_over_2pi", "model",
                results["motion"]["gamma_over_2pi_hz"], model_hz,
                Z * width["se_hz"] + abs(width["fit_hz"] - model_hz), " Hz"),
        _within("analyze.a_pi", "model", results["dipole_fraction"]["a_pi"],
                dipole["a_pi"], Z * dipole["se"] + abs(dipole["fit"] - dipole["a_pi"])),
    ]


def campaign_checks(p: dict, summaries: dict, fig1a_rows: list[dict]) -> list[Check]:
    """Checks of `reproduce --figure all` on config ``p``."""
    checks = []
    closed = model.collection_fractions(p)
    app_a = summaries["appA_efficiency"]
    for kind in ("linear", "circular"):
        # collection_efficiency documents an absolute quadrature error < 1e-6
        checks.append(_within(f"appA.{kind}", "model", app_a[kind], closed[kind], 1e-6))
        # the paper quotes two decimals: half a unit in the last place
        checks.append(_within(f"appA.{kind}_reference", "reference", app_a[kind],
                              model.COLLECTION_REFERENCE[kind], 0.005))

    single = model.single_rod_gamma(p) / (2 * math.pi)
    checks.append(_within("appC.gamma_over_2pi", "model",
                          summaries["appC_gamma"]["gamma_over_2pi_hz"], single,
                          1e-9 * single, " Hz"))

    app_e = summaries["appE_rate"]
    rep = p["excitation"]["repetition_rate_hz"]
    rate = model.count_rate(p)
    per_pulse = rate / rep
    n_pulses = app_e["n_pulses"]
    rate_se = math.sqrt(n_pulses * per_pulse * (1 - per_pulse)) * rep / n_pulses
    checks.append(_within("appE.closed_form_rate", "model", app_e["rate_hz"], rate,
                          1e-9 * rate, " Hz"))
    checks.append(_within("appE.monte_carlo_rate", "model",
                          app_e["monte_carlo_rate_hz"], rate, Z * rate_se, " Hz"))

    worst_model, worst_band = None, None
    for row in fig1a_rows:
        n_rods, g2 = int(row["n_rods"]), float(row["g2_zero"])
        exp = model.photon_expectations(p, 1.0, n_rods, blinking=False)
        z = abs(g2 - exp["g2"]) / exp["g2_se"]
        if worst_model is None or z > worst_model[0]:
            worst_model = (z, n_rods, g2, exp["g2"], exp["g2_se"])
        lo, hi = model.G2_BAND
        outside = max(lo - g2, g2 - hi, 0.0) / exp["g2_se"]
        if worst_band is None or outside > worst_band[0]:
            worst_band = (outside, n_rods, g2, exp["g2_se"])
    z, n_rods, g2, expected, se = worst_model
    checks.append(Check("fig1a.g2_closed_form", "model", bool(fig1a_rows) and z <= Z,
                        f"{len(fig1a_rows)} sizes; worst N={n_rods}: {g2:.4g} vs "
                        f"{expected:.4g} +- {Z * se:.3g}"))
    outside, n_rods, g2, se = worst_band
    checks.append(Check("fig1a.g2_band", "reference", bool(fig1a_rows) and outside <= Z,
                        f"worst N={n_rods}: g2 {g2:.4g} +- {Z * se:.3g} vs band "
                        f"{list(model.G2_BAND)}"))

    fig1b = summaries["fig1b"]
    lo, hi = fig1b["ci95"]
    overlaps = hi >= model.EXPONENT_BAND[0] and lo <= model.EXPONENT_BAND[1]
    checks.append(Check("fig1b.within_or_adjacent", "reference",
                        overlaps and fig1b["within_or_adjacent"] is True,
                        f"exponent CI [{lo:.4g}, {hi:.4g}] vs band "
                        f"{list(model.EXPONENT_BAND)}; flag {fig1b['within_or_adjacent']}"))
    return checks
