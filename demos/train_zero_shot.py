"""
End-to-end: train on seen classes, retrieve unseen ones
=======================================================

Generates a small synthetic paired dataset, trains the hybrid model for
about half a minute, then scores EEG queries from classes the model never
saw against those classes' image embeddings.
"""

import tempfile
from pathlib import Path

import numpy as np

from vqcontrast import (
    RetrievalModel,
    RunConfig,
    evaluate_zero_shot,
    generate_dataset,
    train,
)

# Workstation-sized: 4 qubits, 16 seen classes, 8 held out for retrieval.
config = RunConfig(
    n_qubits=4,
    n_layers=2,
    lr=0.002,
    epochs=100,
    batch_size=32,
    electrodes=8,
    time_samples=64,
    spatial_maps=8,
    temporal_maps=8,
    temporal_kernel=16,
    embed_dim=16,
    image_dim=32,
    n_train_classes=16,
    n_test_classes=8,
    samples_per_class=20,
    noise_sigma=0.3,
    seed=0,
)

workdir = Path(tempfile.mkdtemp(prefix="vqcontrast-demo-"))
manifest = generate_dataset(
    workdir,
    seed=config.seed,
    n_train_classes=config.n_train_classes,
    n_test_classes=config.n_test_classes,
    samples_per_class=config.samples_per_class,
    electrodes=config.electrodes,
    time_samples=config.time_samples,
    image_dim=config.image_dim,
    noise_sigma=config.noise_sigma,
)
print("dataset written to", workdir)
print("train classes:", manifest.train_classes, " held out:", manifest.test_classes)

# Chance level for retrieval over the held-out classes.
chance = 1.0 / config.n_test_classes
untrained = RetrievalModel(config, np.random.default_rng(config.seed))
before = evaluate_zero_shot(untrained, manifest)
print(f"\nuntrained top-1: {before.top1:.3f}  (chance = {chance:.3f})")

print("\ntraining...")
model, records = train(config, manifest)
for record in records[::10] + [records[-1]]:
    print(f"  epoch {record.epoch:>3}  loss {record.train_loss:.4f}")

after = evaluate_zero_shot(model, manifest)
print(f"\ntrained top-1 on unseen classes: {after.top1:.3f}  (chance = {chance:.3f})")
print(f"learned temperature e^tau = {np.exp(float(model.log_tau.data)):.2f}")

# Parameters persist as one binary container, their records in sorted-name order.
params_path = workdir / "model.params"
model.save(params_path)
restored = RetrievalModel.from_saved(config, params_path)
again = evaluate_zero_shot(restored, manifest)
print(f"reloaded from {params_path.name}: top-1 {again.top1:.3f}")
