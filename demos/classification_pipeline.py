"""
Joint registration and classification, end to end
===================================================

Trains the full pipeline on half of a simulated two-group panel and
predicts the held-out half: registration, FPCA score extraction, the
penalized functional logistic model, and the label decision for new
subjects from their group alignments.  A scalar-only logistic baseline
shows what the curve information adds.
"""

import numpy as np

from warpclass.classify import (
    fit_classifier,
    functional_coefficient,
    predict_new,
    scalar_only_prob,
)
from warpclass.registration import RegistrationConfig, fit_registration
from warpclass.simeval import Study2Config, metric_ca, simulate_study2

cfg = Study2Config(scenario="A", seed=5, n_subjects=60, n_obs=60)
panel, truth = simulate_study2(cfg)

train_ids = [s for s, m in zip(panel.subject_ids, truth.train_mask) if m]
test_ids = [s for s, m in zip(panel.subject_ids, truth.train_mask) if not m]
train = panel.subset(train_ids)
print(f"train {len(train_ids)} subjects / test {len(test_ids)}")

fit = fit_registration(train, RegistrationConfig(max_outer=8))
print(f"registration: converged={fit.converged}, n_outer={fit.n_outer}")

# truncation pair (k_x, k_e): k_x components describe the curves, the
# leading k_e of them enter the classifier
model = fit_classifier(fit, train, k_x=8, k_e=5)
print(f"classifier: converged={model.converged} after {model.n_passes} inner solves, "
      f"sigma_e={model.sigma_e:.3f}")
print(f"scalar effect b1 = {model.b1[0]:+.3f} (covariate separates the groups)")

# the functional coefficient curves say where on [0,1] the curves matter
t = np.linspace(0.0, 1.0, 9)
print("beta1(t):", np.round(functional_coefficient(model, 0, t), 2).tolist())
print("beta2(t):", np.round(functional_coefficient(model, 1, t), 2).tolist())

# held-out prediction: each new subject is registered against the template
# of the group its covariate points to, and against the other group's too
# when that alignment classifies it there
y_hat, iters = [], []
label_of = dict(zip(panel.subject_ids, truth.labels.tolist()))
for i, sid in enumerate(panel.subject_ids):
    if sid not in test_ids:
        continue
    res = predict_new(fit, model, panel.curve(sid), panel.covariates[i])
    y_hat.append(res.label)
    iters.append(res.iterations)
# the scalar-only baseline scores the whole held-out panel in one call
y_base = (scalar_only_prob(model, panel.subset(test_ids).covariates) > 0.5).astype(int)

y_true = [label_of[s] for s in test_ids]
print(f"\nheld-out accuracy, full model:   {metric_ca(y_true, y_hat):.3f}")
print(f"held-out accuracy, scalars only: {metric_ca(y_true, y_base):.3f}")
print(f"subjects scored under both alignments: {iters.count(2)} of {len(iters)}")
