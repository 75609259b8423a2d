#!/bin/sh
# The five-command pipeline on a small simulated data set.
# Artifacts land in a scratch directory; every step is deterministic
# for the given seed, so rerunning this script reproduces every byte.
set -e

DIR="$(mktemp -d)"
echo "working in $DIR"

# 1. simulate a small two-group panel, already split into halves
warpclass simulate --study 2 --scenario A --seed 9 \
  --n-subjects 16 --n-obs 30 --split-files --out "$DIR/data"

# 2. fit registration + classifier on the training half;
#    the config pins a small spline basis and truncation pair
cat > "$DIR/config.json" <<EOF
{"n_interior_knots": 4, "k_x": 5, "k_e": 3, "max_outer": 4}
EOF
warpclass fit --curves "$DIR/data/curves_train.csv" \
  --scalars "$DIR/data/scalars_train.csv" \
  --config "$DIR/config.json" --timings --out "$DIR/fit"

# 3. predict the held-out half
warpclass predict --fit "$DIR/fit" \
  --curves "$DIR/data/curves_test.csv" \
  --scalars "$DIR/data/scalars_test.csv" \
  --out "$DIR/predictions.csv"

# 4. write the aligned training curves on the common grid
warpclass register --fit "$DIR/fit" \
  --curves "$DIR/data/curves_train.csv" --out "$DIR/aligned.csv"

# 5. score the predictions against the simulation truth
warpclass evaluate --predictions "$DIR/predictions.csv" \
  --truth "$DIR/data/truth.json" --fit "$DIR/fit" --out "$DIR/metrics.json"

echo
echo "--- predictions ---"
cat "$DIR/predictions.csv"
echo
echo "--- metrics ---"
cat "$DIR/metrics.json"
