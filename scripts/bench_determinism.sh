#!/bin/sh
# Re-run `run_all --quick` into a second directory and byte-compare it with
# a first run: every BENCH_*.json except BENCH_connect_storm.json (which
# records host milliseconds) and TRACE_hello16.json must be identical.
# Usage: scripts/bench_determinism.sh RUN_ALL FIRST_DIR SECOND_DIR
set -eu
run_all="$1"
first="$2"
second="$3"
rm -rf "${second}"
"${run_all}" --quick --out "${second}" > /dev/null
status=0
compared=0
for path in "${first}"/BENCH_*.json "${first}/TRACE_hello16.json"; do
  name="$(basename "${path}")"
  if [ "${name}" = "BENCH_connect_storm.json" ]; then
    continue
  fi
  if ! cmp "${path}" "${second}/${name}"; then
    status=1
  fi
  compared=$((compared + 1))
done
echo "bench_determinism: compared ${compared} artifacts"
exit "${status}"
