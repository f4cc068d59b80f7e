#!/usr/bin/env bash
# Bench baseline harness.
#
#   tools/bench_baseline.sh record [out.json]   # run quick benches, write baseline
#   tools/bench_baseline.sh check  [base.json]  # re-run fig11/fig12, fail on >10%
#                                               # buffered-throughput regression
#
# Runs the short (SOLROS_BENCH_QUICK) fig11/fig12/fig17 configs, the
# fig19 connection storm (net path with batching off and on) and the
# cache_paths staged-path bench with --csv, and emits a machine-readable
# BENCH_baseline.json (one row object per line so `check` can parse it with
# awk — no JSON tooling required). Every bench runs once with the default
# configuration; fig/cache rows carry "variant": "current". fig19 carries
# its two configurations as rows (batch-off / batch-on).
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
MODE="${1:-record}"
BASELINE="${2:-BENCH_baseline.json}"
REGRESSION_PCT="${REGRESSION_PCT:-10}"

cd "$(dirname "$0")/.."

if [[ ! -x "$BUILD_DIR/bench/fig11_fs_random_read" ]]; then
  echo "error: benches not built under $BUILD_DIR (set BUILD_DIR=...)" >&2
  exit 2
fi

run_bench() { # <binary>
  SOLROS_BENCH_QUICK=1 "$BUILD_DIR/bench/$1" --csv
}

# fig11/fig12 output -> "fig,variant,threads,block,host,solros,buffered,virtio,nfs"
parse_fs_fig() { # <fig> <variant>
  awk -v fig="$1" -v variant="$2" '
    /^--- [0-9]+ thread/ { threads = $2 }
    /^csv:$/             { incsv = 1; next }
    incsv && /^block,/   { next }
    incsv && /^[0-9]/    { print fig "," variant "," threads "," $0; next }
                         { incsv = 0 }
  '
}

# fig17 output -> "fig17,variant,app,config,time_ms"
parse_fig17() { # <variant>
  awk -v variant="$1" -F, '
    /^--- text indexing/ { app = "text_index" }
    /^--- image search/  { app = "image_search" }
    /^csv:$/             { incsv = 1; next }
    incsv && /^config,/  { next }
    incsv && NF >= 2     { print "fig17," variant "," app "," $1 "," $2; next }
                         { incsv = 0 }
  '
}

# fig19 output -> "fig19,config,conns,ops,doorbells,ev_per_push,p99_us,fairness"
# from the full-precision csv block (the first row of each config; the
# table's rounded csv block repeats them).
parse_fig19() {
  awk -F, '
    ($1 == "batch-off" || $1 == "batch-on") && !seen[$1]++ {
      print "fig19," $0
    }
  '
}

# cache_paths output -> "cache_paths,variant,scenario,mode,gbps,cmds"
# plus the summary ratios on stderr-free lines "ratio,<name>,<value>".
parse_cache_paths() {
  awk -F, '
    /^--- sequential/    { scen = "seq_read" }
    /^--- hot-set/       { scen = "scan_mix" }
    /^--- random/        { scen = "rand_write" }
    /^csv:$/             { incsv = 1; next }
    incsv && /^mode,/    { next }
    incsv && NF >= 2     { print "cache_paths," scen "," $1 "," $2 "," $3; next }
                         { incsv = 0 }
    /command reduction:/ { sub("x.*", "", $0); sub(".*: *", "", $0)
                           print "ratio,seq_read_cmd_reduction," $0 }
  '
}

json_escape_rows() { # stdin: csv rows -> JSON row objects, one per line
  awk -F, '
    $1 == "fig11" || $1 == "fig12" {
      printf "    {\"fig\": \"%s\", \"variant\": \"%s\", \"threads\": %s, \"block\": \"%s\", \"host_gbps\": %s, \"solros_gbps\": %s, \"buffered_gbps\": %s, \"virtio_gbps\": %s, \"nfs_gbps\": %s},\n",
             $1, $2, $3, $4, $5, $6, $7, $8, $9
    }
    $1 == "fig17" {
      printf "    {\"fig\": \"fig17\", \"variant\": \"%s\", \"app\": \"%s\", \"config\": \"%s\", \"time_ms\": %s},\n",
             $2, $3, $4, $5
    }
    $1 == "fig19" {
      printf "    {\"fig\": \"fig19\", \"config\": \"%s\", \"conns\": %s, \"ops_per_s\": %s, \"doorbells\": %s, \"ev_per_push\": %s, \"p99_us\": %s, \"fairness\": %s},\n",
             $2, $3, $4, $5, $6, $7, $8
    }
    $1 == "cache_paths" {
      printf "    {\"fig\": \"cache_paths\", \"scenario\": \"%s\", \"variant\": \"%s\", \"gbps\": %s, \"nvme_cmds\": %s},\n",
             $2, $3, $4, $5
    }
  '
}

record() {
  local tmp rows ratio
  tmp="$(mktemp -d)"
  trap "rm -rf '$tmp'" EXIT

  echo ">> fig11" >&2
  run_bench fig11_fs_random_read | parse_fs_fig fig11 current >"$tmp/rows"
  echo ">> fig12" >&2
  run_bench fig12_fs_random_write | parse_fs_fig fig12 current >>"$tmp/rows"
  echo ">> fig17" >&2
  run_bench fig17_applications | parse_fig17 current >>"$tmp/rows"
  echo ">> fig19 (batch-off + batch-on)" >&2
  run_bench fig19_connection_storm | parse_fig19 >>"$tmp/rows"
  echo ">> cache_paths" >&2
  run_bench cache_paths | parse_cache_paths >"$tmp/cache"
  grep -v '^ratio,' "$tmp/cache" >>"$tmp/rows"

  ratio="$(awk -F, '$1 == "ratio" && $2 == "seq_read_cmd_reduction" {print $3}' \
           "$tmp/cache")"
  ratio="${ratio:-0}"
  # Acceptance gate: readahead + coalescing must serve at least 4 sequential
  # 64 KiB reads per NVMe command (an unbatched path issues one per read).
  if ! awk -v r="$ratio" 'BEGIN { exit !(r >= 4.0) }'; then
    echo "error: seq-read command reduction ${ratio}x < 4x" >&2
    exit 1
  fi

  {
    echo "{"
    echo "  \"schema\": 1,"
    echo "  \"generator\": \"tools/bench_baseline.sh\","
    echo "  \"bench_mode\": \"quick\","
    echo "  \"seq_read_cmd_reduction_x\": $ratio,"
    echo "  \"rows\": ["
    json_escape_rows <"$tmp/rows" | sed '$ s/},$/}/'
    echo "  ]"
    echo "}"
  } >"$BASELINE"
  echo "wrote $BASELINE ($(grep -c '"fig"' "$BASELINE") rows," \
       "seq-read command reduction ${ratio}x)" >&2
}

check() {
  if [[ ! -f "$BASELINE" ]]; then
    echo "error: baseline $BASELINE not found (run: $0 record)" >&2
    exit 2
  fi
  local tmp
  tmp="$(mktemp -d)"
  trap "rm -rf '$tmp'" EXIT

  echo ">> fig11/fig12 for regression check" >&2
  run_bench fig11_fs_random_read | parse_fs_fig fig11 current >"$tmp/rows"
  run_bench fig12_fs_random_write | parse_fs_fig fig12 current >>"$tmp/rows"

  # Baseline buffered-path numbers: one row object per line by construction.
  awk -F'[:,]' '
    /"variant": "current"/ && (/"fig": "fig11"/ || /"fig": "fig12"/) {
      for (i = 1; i <= NF; ++i) gsub(/[ "}{\]]/, "", $i)
      fig = ""; threads = ""; block = ""; buffered = ""
      for (i = 1; i < NF; ++i) {
        if ($i == "fig") fig = $(i + 1)
        if ($i == "threads") threads = $(i + 1)
        if ($i == "block") block = $(i + 1)
        if ($i == "buffered_gbps") buffered = $(i + 1)
      }
      if (fig != "" && buffered != "")
        print fig "," threads "," block "," buffered
    }
  ' "$BASELINE" | sort >"$tmp/base"

  awk -F, '{print $1 "," $3 "," $4 "," $7}' "$tmp/rows" | sort >"$tmp/now"

  join -t, -j1 \
    <(awk -F, '{print $1 ":" $2 ":" $3 "," $4}' "$tmp/base") \
    <(awk -F, '{print $1 ":" $2 ":" $3 "," $4}' "$tmp/now") >"$tmp/joined"

  if [[ ! -s "$tmp/joined" ]]; then
    echo "error: no comparable rows between baseline and fresh run" >&2
    exit 2
  fi

  awk -F, -v pct="$REGRESSION_PCT" '
    {
      base = $2; now = $3
      drop = (base > 0) ? 100.0 * (base - now) / base : 0
      status = (drop > pct) ? "REGRESSED" : "ok"
      printf "%-24s baseline %.3f GB/s  now %.3f GB/s  (%+.1f%%)  %s\n",
             $1, base, now, -drop, status
      if (drop > pct) failed = 1
    }
    END { exit failed ? 1 : 0 }
  ' "$tmp/joined"
}

case "$MODE" in
  record) record ;;
  check) check ;;
  *)
    echo "usage: $0 {record|check} [baseline.json]" >&2
    exit 2
    ;;
esac
