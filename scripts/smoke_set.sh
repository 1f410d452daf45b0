#!/bin/sh
# Write the CLI smoke set into DIR (made if missing): the README quick start,
# a fit under a given prior, shuffled, three-sample, 100-sample and
# no-correlation Gaussian fits, an in-order batch-30 Gaussian fit (a remainder
# batch, correlation on), a folded-normal chain (three-, 700- and 100-sample
# batch-10 fits, a 5,000-sample final F, a one-sample batch-30 fit without
# correlation), the grids, the comparisons and figures 1, 3, 5 and 6: 66
# entries in all, 106 files with the four figure directories.
#
# Usage: scripts/smoke_set.sh DIR
#
# Every command runs as `python3 -m svbayes.cli`, so the set is written by
# whichever svbayes is importable: the installed package, or a checkout's
# tree with an absolute PYTHONPATH (the script works inside DIR).  Two sets,
# from one tree or from two, compare file by file with `cmp`.
set -eu
if [ "$#" -ne 1 ]; then
    echo "usage: $0 DIR" >&2
    exit 2
fi
mkdir -p "$1"
cd "$1"
svbayes() { python3 -m svbayes.cli "$@"; }
svbayes generate --model gaussian --mu 1 --variance 4 --n 100 --seed 42 --out data
svbayes fit --data data.csv --model gaussian --seed 1 --out fit
svbayes fit --data data.csv --prior-mean 0.5 --prior-var 50 --seed 1 --out fit_prior
svbayes fit --data data.csv --batch-size 10 --seed 1 --out fit_mb
svbayes fit --data data.csv --batch-size 10 --shuffle --seed 3 --out fit_sh
svbayes fit --data data.csv --batch-size 10 --mc-samples 3 --seed 1 --out fit_l3
svbayes fit --data data.csv --batch-size 7 --shuffle --mc-samples 3 --seed 2 --out fit_sh_l3
svbayes fit --data data.csv --batch-size 10 --mc-samples 100 --seed 1 --out fit_l100
svbayes fit --data data.csv --no-correlation --batch-size 7 --shuffle --mc-samples 3 --seed 2 --out fit_nc_l3
svbayes fit --data data.csv --batch-size 30 --seed 1 --out fit_b30
svbayes grid --data data.csv --model gaussian --out grid
svbayes grid --data data.csv --no-prior --resolution 51 --out grid_np
svbayes compare fit.json grid.summary.json --out cmp
svbayes generate --model folded-normal --mu 1 --variance 4 --n 100 --seed 42 --out fdata
svbayes fit --data fdata.csv --model folded-normal --seed 1 --out ffit
svbayes fit --data fdata.csv --model folded-normal --mc-samples 3 --seed 1 --out ffit_l3
svbayes fit --data fdata.csv --model folded-normal --batch-size 10 --mc-samples 100 --seed 1 --out ffit_l100
svbayes fit --data fdata.csv --model folded-normal --mc-samples 700 --seed 1 --out ffit_l700
svbayes fit --data fdata.csv --model folded-normal --final-fe-samples 5000 --seed 1 --out ffit_fe5k
svbayes fit --data fdata.csv --model folded-normal --no-correlation --batch-size 30 --seed 1 --out ffit_nc
svbayes grid --data fdata.csv --model folded-normal --out fgrid
svbayes compare ffit.json fgrid.summary.json --out fcmp
svbayes figure 1 --seed 0 --out-dir fig1
svbayes figure 3 --seed 0 --out-dir fig3
svbayes figure 5 --seed 0 --out-dir fig5
svbayes figure 6 --seed 0 --out-dir fig6
