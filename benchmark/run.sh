#!/usr/bin/env bash
# Builds the benchmark and tsserved from this checkout and runs one
# benchmark invocation:
#
#   bash benchmark/run.sh --workload social-join --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh steady -n 10
#   bash benchmark/run.sh oracle
#
# Run it from the repository root. Everything it builds or writes —
# binaries, the Go build cache, run scratch — stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/bin" "${out}/tmp"

export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOTMPDIR="${out}/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= \
	XDG_CONFIG_HOME="${out}/config" GOENV=off

# Without the module the benchmark imports (a directory holding only
# the benchmark), the build fails and so does this script.
go -C "${bench}" build -o "${out}/bin/tsbench" . >&2
go -C "${bench}" build -o "${out}/bin/tsserved" timingsubg/cmd/tsserved >&2

cmd=run
case "${1:-}" in
run | oracle | steady) cmd="$1"; shift ;;
esac
case "${cmd}" in
run) exec "${out}/bin/tsbench" run -dir "${bench}" -tsserved "${out}/bin/tsserved" -work "${out}/work" "$@" ;;
oracle) exec "${out}/bin/tsbench" oracle -dir "${bench}" "$@" ;;
steady) exec "${out}/bin/tsbench" steady -dir "${bench}" -bench "${root}/BENCHMARK.json" -tsserved "${out}/bin/tsserved" -work "${out}/work" "$@" ;;
esac
