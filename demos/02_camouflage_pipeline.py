#!/usr/bin/env python3
"""Camouflage one functional cone to resemble a decoy, across a small grid.

The two cones are encoded once; for each p the interpolated latent is
decoded once, and for each th that decode is thresholded into a generated
skeleton, which the fix pass repairs. Each netlist's fabricated circuit,
each covert cell replaced by its real gate, is checked to still compute the
original circuit. Prints the placement mix and area overhead so
the knobs are visible.
"""
import numpy as np

from ipcamo.aig import random_tree
from ipcamo.attack import equivalence_check
from ipcamo.camouflage import area_overhead, camouflage_grid, camouflage_pipeline
from ipcamo.covert import realize
from ipcamo.vae import Hyperparams, train

HP = Hyperparams(latent_dim=24, hidden_dim=24, mlp_hidden=24, max_pi=12,
                 seed=0, epochs=15, lr=3e-3)


def main():
    rng = np.random.default_rng(42)
    dataset = [random_tree(rng, 1 + int(rng.integers(9)), n_pi_pool=6)
               for _ in range(50)]
    params, _ = train(dataset, HP)

    pair_rng = np.random.default_rng(7)
    f = random_tree(pair_rng, 20, n_pi_pool=8)   # circuit to protect
    a = random_tree(pair_rng, 20, n_pi_pool=8)   # decoy appearance
    print(f"functional cone: {f.n} nodes | appearance cone: {a.n} nodes")

    print(f"{'p':>4} {'th':>5} {'placements':>10} {'FI/FB/UT':>10} "
          f"{'overhead':>8} {'equiv':>5}")
    for nl in camouflage_grid(f, a, params, (0.1, 0.5, 0.9), (0.02, 0.05), seed=0):
        kinds = [pl.kind.value for pl in nl.placements]
        mix = (f"{kinds.count('FI')}/{kinds.count('FB')}/"
               f"{kinds.count('UT-A') + kinds.count('UT-B')}")
        ok = equivalence_check(realize(nl.appearance_view, nl.placements), f)
        print(f"{nl.metadata['p']:>4} {nl.metadata['th']:>5} {len(nl.placements):>10} "
              f"{mix:>10} {area_overhead(nl):>8.2f} {'yes' if ok else 'NO':>5}")
        assert ok, "functional preservation violated"

    # a netlist survives a JSON round trip byte-for-byte
    nl = camouflage_pipeline(f, a, params, 0.5, 0.05, seed=0)
    text = nl.to_json()
    assert type(nl).from_json(text).to_json() == text
    print(f"\nserialized netlist: {len(text)} bytes, "
          f"checkpoint sha {nl.metadata['checkpoint_sha256'][:12]}...")


if __name__ == "__main__":
    main()
