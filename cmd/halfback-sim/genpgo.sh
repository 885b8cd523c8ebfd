#!/bin/sh
# genpgo.sh regenerates default.pgo, the CPU profile that a plain
# `go build` applies to halfback-sim and fctsweep (DESIGN.md §11,
# "Profile-guided build"). Run it from the repository root with
#
#	go generate ./cmd/halfback-sim
#
# It builds both CLIs without a profile, runs the training set below under
# -cpuprofile, merges the profiles, and writes the same bytes to
# cmd/halfback-sim/default.pgo and cmd/fctsweep/default.pgo. Profiles are
# sampled, so two runs never write the same bytes.
#
# The training set shares no command with the benchmark's workloads
# (benchmark/workloads.go): other figures and flags, and seeds other than
# 1, 7, 23 and 29. A profile trained on the benchmark's own runs would
# measure its own training set.
set -eu

root=$(cd "$(dirname "$0")/../.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$root"

go build -pgo=off -o "$tmp/" ./cmd/halfback-sim ./cmd/fctsweep

n=0
train() {
	bin=$1
	shift
	n=$((n + 1))
	"$tmp/$bin" -workers 1 -cpuprofile "$tmp/train$n.pprof" "$@" >/dev/null
}
for seed in 101 102 103; do
	train halfback-sim -seed $seed -fig 17 -scale 0.1
	train halfback-sim -seed $seed -fig 11 -scale 0.25
	train halfback-sim -seed $seed -fig 7
	train halfback-sim -seed $seed -fig 8
	train halfback-sim -seed $seed -fig 9
	train halfback-sim -seed $seed -fig adversity
	train fctsweep -seed $seed -adversity flaky
	train fctsweep -seed $seed -adversity reorder
done

go tool pprof -proto -output "$tmp/merged.pgo" "$tmp"/train*.pprof
cp "$tmp/merged.pgo" cmd/halfback-sim/default.pgo
cp "$tmp/merged.pgo" cmd/fctsweep/default.pgo
