"""Reference set evaluation: the latent-PGD loop with one search direction
for all rows, and evaluate_set running its two searches as two such calls,
as the package once did. Kept as the oracle that the per-row-direction loop
and the stacked search in evaluate_set are pinned to, bit for bit."""

import numpy as np

from pertsets.cvae import kl_diag, project_ball, sample_truncated_ball
from pertsets.evalmetrics import (METRICS, EvalReport, _mse_rows, _pair_seeds,
                                  _recon_objective)


def latent_pgd(objective, u0, eps: float, steps: int, step: float, maximize: bool,
               transcript: list = None):
    """Projected normalized-gradient search, descent or ascent for every row:
    (best values, best u)."""
    u = project_ball(u0, eps)
    sign = 1.0 if maximize else -1.0
    for t in range(steps + 1):
        val, g = objective(u, t < steps)
        if t == 0:
            best_val, best_u = val.copy(), u.copy()
        else:
            better = val > best_val if maximize else val < best_val
            best_val[better] = val[better]
            best_u[better] = u[better]
        if transcript is not None:
            transcript.append({"iteration": t, "loss": float(val.mean()),
                               "u_norm": float(np.linalg.norm(u, axis=1).mean())})
        if t == steps:
            break
        gn = np.linalg.norm(g, axis=1, keepdims=True)
        direction = np.where(gn > 0, g / np.where(gn == 0, 1.0, gn), 0.0)
        u = project_ball(u + sign * step * direction, eps)
    return best_val, best_u


def evaluate_set(model, pairs, eps: float, rng: np.random.Generator, steps: int = 50,
                 n_expected: int = 5, batch_size: int = 256) -> EvalReport:
    """All six metrics per pair, pgd_ae and oae from two separate searches."""
    step = eps / 20.0
    base = int(rng.integers(0, 2 ** 62))
    out = {name: [] for name in METRICS + ("latent_norm",)}
    for lo in range(0, len(pairs), batch_size):
        x = pairs.perturbed[lo:lo + batch_size]
        y = pairs.conditioned[lo:lo + batch_size]
        B = x.shape[0]
        cond = model.condition(y)
        q = model.encode_posterior(x, y)
        u_enc = (q.mean - cond.prior.mean) / cond.std
        out["latent_norm"].append(np.linalg.norm(u_enc.astype(np.float64), axis=1))
        out["kl"].append(kl_diag(q, cond.prior))

        u_proj = project_ball(u_enc, eps)
        out["enc_ae"].append(_mse_rows(model, u_proj, cond, x))

        recon = _recon_objective(model, x, cond)
        pgd_err, _ = latent_pgd(recon, u_proj, eps, steps, step, maximize=False)
        out["pgd_ae"].append(pgd_err)

        rngs = [np.random.default_rng(s) for s in _pair_seeds(x, y, base)]

        noise = np.stack([r.standard_normal(model.k) for r in rngs])
        z = q.mean + noise * np.exp(q.logvar * 0.5)
        out["recon_err"].append(_mse_rows(model, (z - cond.prior.mean) / cond.std, cond, x))

        draws = np.stack([sample_truncated_ball(model.k, eps, n_expected, r)
                          for r in rngs])
        eae = np.zeros(B)
        for j in range(n_expected):
            eae += _mse_rows(model, draws[:, j], cond, x)
        out["eae"].append(eae / n_expected)

        u0 = np.stack([sample_truncated_ball(model.k, eps, 1, r)[0] for r in rngs])
        oae_err, _ = latent_pgd(recon, u0.astype(np.float32), eps, steps, step, maximize=True)
        out["oae"].append(oae_err)

    records = {name: np.concatenate(v).astype(np.float64) for name, v in out.items()}
    config = {"eps": eps, "steps": steps, "n_expected": n_expected,
              "model": model.meta()}
    return EvalReport(eps=eps, records=records, config=config)
