#!/usr/bin/env bash
# Build the pipeline from source and run one benchmark workload.
#   bash perfbench/run.sh --workload synth|serve|fuzz --seed N --seconds S --trace 0|1
# Run from the repository root. The last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe ./bin/abagnale.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
