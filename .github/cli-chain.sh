#!/usr/bin/env bash
# Run the CLI chain dataset -> train -> camouflage -> verify -> attack -> eval
# on small fixed configs, writing every artifact under the directory $1.
# ipcamo is imported from PYTHONPATH, so one script runs any checkout's src/.
set -euo pipefail
mkdir -p "$1"
cd "$1"
echo '{"synthetic": {"n_graphs": 40, "max_ands": 6}}' > ds.json
echo '{"dataset": "ds", "epochs": 3, "latent_dim": 8, "hidden_dim": 8, "mlp_hidden": 8}' > tr.json
echo '{"checkpoint": "tr/checkpoint.json", "functional": "ds/graphs/g00000.json", "appearance": "ds/graphs/g00001.json"}' > camo.json
echo '{"functional": "ds/graphs/g00000.json", "netlists": "camo"}' > verify.json
echo '{"netlists": "camo"}' > attack.json
echo '{"dataset": "ds", "checkpoint": "tr/checkpoint.json", "netlists": "camo"}' > eval.json
python -m ipcamo dataset --config ds.json --out ds --seed 3
python -m ipcamo train --config tr.json --out tr
python -m ipcamo camouflage --config camo.json --out camo --p 0,0.5 --th 0.05,0.5 --seed 5
python -m ipcamo verify --config verify.json --out verify
python -m ipcamo attack --config attack.json --out attack --budget 60
python -m ipcamo eval --config eval.json --out eval --budget 120
