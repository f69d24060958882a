#!/usr/bin/env bash
# Run the CLI chain dataset -> train -> camouflage -> verify -> attack -> eval
# on small fixed configs, then dataset -> camouflage -> verify -> attack from
# an AIGER file under aiger/, writing every artifact under the directory $1.
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
# The same chain from an AIGER benchmark, under aiger/: two 3-AND cones over
# inputs named like nets the chain generates (`g4`, the first AND slot of
# either cone wearing the other; `key0`, the first key input; and an unnamed
# input beside one named `pi1`, its default name), on the checkpoint above.
mkdir -p aiger/bench
cd aiger
printf '%s\n' 'aag 10 4 0 2 6' 2 4 6 8 14 20 '10 2 5' '12 6 8' '14 10 12' '16 3 7' \
    '18 4 9' '20 17 18' 'i0 pi1' 'i2 key0' 'i3 g4' 'o0 y0' 'o1 y1' > bench/clash.aag
echo '{"benchmark_dir": "bench"}' > ds.json
echo '{"checkpoint": "../tr/checkpoint.json", "functional": "ds/graphs/g00000.json", "appearance": "ds/graphs/g00001.json"}' > camo.json
echo '{"functional": "ds/graphs/g00000.json", "netlists": "camo"}' > verify.json
echo '{"netlists": "camo"}' > attack.json
python -m ipcamo dataset --config ds.json --out ds --seed 3
python -m ipcamo camouflage --config camo.json --out camo --p 0,0.5 --th 0.05,0.5 --seed 5
python -m ipcamo verify --config verify.json --out verify
python -m ipcamo attack --config attack.json --out attack --budget 60
# A deep cone under aiger-deep/: y = x0 AND x1 as a chain of 1,500 ANDs, one
# tree level each, kept whole by max_nodes 4000 (the tree has 3,002 nodes).
mkdir -p ../aiger-deep/bench
cd ../aiger-deep
python - <<'PY' > bench/chain.aag
n = 1500
print(f"aag {n + 2} 2 0 1 {n}", 2, 4, 2 * n + 4, "6 2 4", sep="\n")
for v in range(4, n + 3):
    print(2 * v, 2 * v - 2, 2 + 2 * (v % 2))
print("i0 x0", "i1 x1", "o0 y", sep="\n")
PY
echo '{"benchmark_dir": "bench", "max_nodes": 4000}' > ds.json
python -m ipcamo dataset --config ds.json --out ds --seed 3
