"""Correctness checks run outside the timed phase.

Each check returns a list of failure messages; an empty list means it passed.
They take plain values and callables so that the benchmark's own tests can
feed them deliberately wrong ledgers, outputs and streams.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from recipe import ExpectedLedger, expected_ledger


def ledger_failures(ledger, expected: ExpectedLedger, what: str) -> list[str]:
    """Every field of the closed form must match the request's CostLedger exactly."""
    out = []
    for f in fields(expected):
        got, want = getattr(ledger, f.name), getattr(expected, f.name)
        if got != want:
            out.append(f"{what}: ledger {f.name} = {got}, closed form gives {want}")
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def repeat_failures(request, what: str) -> list[str]:
    """Run ``request()`` twice; a seeded request must give bit-identical output."""
    first, second = request(), request()
    return [] if same_bits(first, second) else [f"{what}: repeated request is not bit-identical"]


def causality_failures(stream, y: np.ndarray, chunk: int, changed: int, what: str) -> list[str]:
    """Change chunk ``changed`` of ``y``; every earlier output chunk must stay bit-identical.

    ``stream(y)`` returns the list of enhanced chunks for input ``y``.
    """
    if not 0 < changed < y.size // chunk:
        raise ValueError(f"changed chunk {changed} must be a later chunk of the input")
    y2 = y.copy()
    sl = slice(changed * chunk, (changed + 1) * chunk)
    y2[sl] = -2.0 * y2[sl] + 0.25
    base, alt = stream(y), stream(y2)
    bad = [c for c in range(changed) if not same_bits(base[c], alt[c])]
    if bad:
        return [f"{what}: changing chunk {changed} changed earlier output chunks {bad}"]
    return []


def reference_failures(got, ref, rtol: float, what: str) -> list[str]:
    """Relative L2 distance to the stored reference output must stay within ``rtol``."""
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return [f"{what}: output shape {got.shape}, reference shape {ref.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{what}: output is not finite"]
    rel = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    return [] if rel <= rtol else [f"{what}: relative distance {rel:.3e} to reference > {rtol:.0e}"]


def sweep_csv_failures(rows: list[dict], n_phis, seeds, n_samples: int, n_steps: int) -> list[str]:
    """Rows of ``sweep.csv``: one per cell plus one median row per n_phi.

    ``sweep-nphi`` always runs the hybrid provider, so the denoiser runs once
    per utterance and the forward and MAC columns follow the closed form.
    """
    out = []
    want_keys = {(n, str(s)) for n in n_phis for s in seeds} | {(n, "median") for n in n_phis}
    got_keys = [(int(r["n_phi"]), r["seed"]) for r in rows]
    if sorted(got_keys) != sorted(want_keys):
        out.append(f"sweep.csv rows {sorted(got_keys)} != expected {sorted(want_keys)}")
    for r in rows:
        exp = expected_ledger(int(r["n_phi"]), n_samples, n_steps, with_denoiser=True)
        for col in ("score_net_forwards", "mac_total"):
            if int(r[col]) != getattr(exp, col):
                out.append(f"sweep.csv n_phi={r['n_phi']} seed={r['seed']}: {col} = {r[col]}, "
                           f"closed form gives {getattr(exp, col)}")
        for col in ("sdr_db", "lsd", "rtf"):
            if not np.isfinite(float(r[col])):
                out.append(f"sweep.csv n_phi={r['n_phi']} seed={r['seed']}: {col} not finite")
    return out

