#!/usr/bin/env bash
# Check that this checkout and revision REV give byte-identical outputs.
#
#   tools/same_outputs.sh REV [WORKDIR]
#
# Runs one fixed set of similearn commands at one BLAS thread, once with the
# sources of this checkout (its working tree) and once with those of REV
# (exported with `git archive`), then compares the two output trees with
# `diff -r`. The set:
#   - `kernels` on both banks, at n=60 and at n=600 (CSVs, JSONs, stdout);
#   - `learn` on gaussian_t1, poly_a1_b2 and linear x both regularizers at n=60,
#     and on gaussian_t1 x both regularizers at n=600 with 5 iterations (a dense
#     low_rank Z, and a sparse Z full of -0 entries: neither is symmetric);
#   - `cluster` (with and without --labels), `ssl` at two fractions, `eval`;
#   - a clustering12 and an ssl7 `benchmark` grid with save_z and two alphas
#     (results.csv, every z_*.csv, and the manifest's row, cell and failure
#     records; its timestamp, timings and paths differ by design);
#   - the same clustering12 grid on identical samples, where every Gaussian
#     kernel fails and linear and polynomial fall back: its failure rows in
#     results.csv and its failure records in manifest_counts.json;
#   - the first clustering12 grid again at SIMILEARN_WORKERS=16, more workers
#     than the bank has kernels (the other grids run at the default workers).
# Every command's stdout, stderr and exit code are compared too. Inputs are
# drawn from a fixed numpy seed. Prints "identical" and exits 0 when nothing
# differs; otherwise prints the diff and exits 1. Outputs stay in WORKDIR
# (default: a new temporary directory).
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 REV [WORKDIR]" >&2
    exit 2
fi
rev=$1
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
git -C "$repo" rev-parse --verify --quiet "$rev^{commit}" > /dev/null \
    || { echo "error: unknown revision $rev" >&2; exit 2; }

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONDONTWRITEBYTECODE=1

rm -rf "$work/data" "$work/rev_src" "$work/rev" "$work/head"
mkdir -p "$work/data" "$work/rev_src"
git -C "$repo" archive "$rev" src | tar -x -C "$work/rev_src"

python3 - "$work/data" <<'EOF'
import sys
import numpy as np

out = sys.argv[1]
rng = np.random.default_rng(20)
for n_per in (20, 200):  # three classes: n = 60 and n = 600
    y = np.repeat(np.arange(3), n_per)
    X = rng.normal(size=(3 * n_per, 5)) + 4.0 * np.eye(3, 5)[y]
    np.savetxt(f"{out}/features{3 * n_per}.csv", X, delimiter=",", fmt="%.17g")
    np.savetxt(f"{out}/labels{3 * n_per}.csv", y, fmt="%d")
# identical samples: every pairwise distance is 0
np.savetxt(f"{out}/features_identical.csv", np.ones((12, 5)), delimiter=",", fmt="%.17g")
np.savetxt(f"{out}/labels_identical.csv", np.repeat(np.arange(3), 4), fmt="%d")
EOF

# run NAME ARGS...: one similearn command; its stdout, stderr and exit code
run() {
    local name=$1
    shift
    local code=0
    python3 -m similearn.cli "$@" > "$name.stdout" 2> "$name.stderr" || code=$?
    echo "$code" > "$name.exit"
}

grid_config() {  # grid_config TASK BANK DATA NAME: a grid on features$DATA.csv into grid_NAME
    cat <<EOF
{"task": "$1", "bank": "$2", "dataset": "../data/features$3.csv",
 "labels": "../data/labels$3.csv", "out_dir": "grid_$4",
 "regularizers": ["low_rank", "sparse"], "alphas": [0.1, 1.0], "betas": [0.1],
 "seed": 1, "save_z": true}
EOF
}

outputs() {  # outputs SRC OUT: every command with the package under SRC
    local out=$2
    mkdir -p "$out"
    (
        cd "$out"
        export PYTHONPATH=$1
        for n in 60 600; do
            for bank in clustering12 ssl7; do
                run "kernels_${bank}_$n" kernels --data "../data/features$n.csv" \
                    --bank "$bank" --out-dir "kernels_${bank}_$n"
            done
        done
        for kernel in gaussian_t1 poly_a1_b2 linear; do
            for reg in low_rank sparse; do
                run "learn_${kernel}_$reg" learn --kernel "kernels_clustering12_60/$kernel.csv" \
                    --reg "$reg" --out "z_${kernel}_$reg.csv"
            done
        done
        for reg in low_rank sparse; do
            run "learn_600_$reg" learn --kernel kernels_clustering12_600/gaussian_t1.csv \
                --reg "$reg" --max-iter 5 --out "z_600_$reg.csv"
        done
        run cluster cluster --z z_gaussian_t1_sparse.csv --classes 3 --seed 1 --out cluster.json
        run cluster_labels cluster --z z_gaussian_t1_sparse.csv --classes 3 --seed 1 \
            --labels ../data/labels60.csv --out cluster_labels.json
        for fraction in 0.1 0.3; do
            run "ssl_$fraction" ssl --z z_gaussian_t1_sparse.csv --labels ../data/labels60.csv \
                --fraction "$fraction" --repeats 5 --seed 1 --out "ssl_$fraction.json"
        done
        python3 -c 'import json, sys; print("\n".join(map(str, json.load(sys.stdin)["assignments"])))' \
            < cluster.json > pred.csv
        run eval eval --pred pred.csv --truth ../data/labels60.csv
        grid_config clustering clustering12 60 clustering12 > grid_clustering12.json
        grid_config ssl ssl7 60 ssl7 > grid_ssl7.json
        grid_config clustering clustering12 _identical clustering12_identical \
            > grid_clustering12_identical.json
        grid_config clustering clustering12 60 clustering12_16_workers \
            > grid_clustering12_16_workers.json
        for grid in clustering12 ssl7 clustering12_identical clustering12_16_workers; do
            if [ "$grid" = clustering12_16_workers ]; then
                SIMILEARN_WORKERS=16 run "benchmark_$grid" benchmark --config "grid_$grid.json"
            else
                run "benchmark_$grid" benchmark --config "grid_$grid.json"
            fi
            # the manifest's timestamp, wall clock, BLAS and version records vary by run
            python3 -c 'import json, sys; m = json.load(sys.stdin); print(json.dumps({k: m.get(k) for k in ("n_rows", "n_cells", "n_failed", "failures")}, indent=1))' \
                < "grid_$grid/manifest.json" > "grid_$grid/manifest_counts.json"
            rm "grid_$grid/manifest.json"
        done
    )
}

outputs "$work/rev_src/src" "$work/rev"
outputs "$repo/src" "$work/head"

if diff -r "$work/rev" "$work/head"; then
    echo "identical: $(find "$work/head" -type f | wc -l) files of $(git -C "$repo" rev-parse --short "$rev") and this checkout, in $work"
else
    echo "outputs differ; see $work" >&2
    exit 1
fi
