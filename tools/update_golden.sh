#!/bin/sh
# Regenerate the pinned golden-stats JSON under tests/golden/.
#
# Run this after an *intentional* behavioural change to the simulator,
# then review the diff: every changed field should be explainable by
# the change you just made. The files are produced by the ecdpsim
# command-line driver, which shares the exact JSON writer the
# golden-stats test uses.
#
# Usage: tools/update_golden.sh [build-dir]   (default: build)

set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}
ecdpsim="$build/tools/ecdpsim"
golden="$repo/tests/golden"

if [ ! -x "$ecdpsim" ]; then
    echo "error: $ecdpsim not built (cmake --build $build)" >&2
    exit 1
fi

mkdir -p "$golden"

gen() {
    bench=$1
    config=$2
    out=$3
    echo "  $bench --config $config -> tests/golden/$out"
    ECDP_TRACE= ECDP_RESULT_CACHE= \
        "$ecdpsim" --bench "$bench" --config "$config" \
        --input train --json > "$golden/$out"
}

echo "regenerating golden stats:"
gen health baseline health_baseline.json
gen mst cdp+throttle mst_cdp_throttle.json
gen bisort full bisort_full.json
gen mst noprefetch mst_noprefetch.json
gen bisort cdp bisort_cdp.json
gen bisort ecdp bisort_ecdp.json
gen bisort dbp bisort_dbp.json
gen bisort markov bisort_markov.json
gen health ghb health_ghb.json
gen health ghb+ecdp health_ghb_ecdp.json
gen mst cdp+filter mst_cdp_filter.json
gen bisort ecdp+fdp bisort_ecdp_fdp.json
gen bisort cdp+pab bisort_cdp_pab.json
gen perimeter grp perimeter_grp.json
gen health ideal-lds health_ideal_lds.json
echo "done — review the diff before committing."
