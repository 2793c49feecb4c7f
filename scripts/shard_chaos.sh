#!/usr/bin/env bash
# Shard-chaos acceptance check: split fig12_mpki into three shards
# with the cell-kill fault armed, so every process SIGKILLs itself
# right after its first newly simulated cell is durable, and require
#
#   1. every shard finishes by being restarted off its checkpoint
#      (exit 137 = killed, restart; exit 0 = done; anything else, or
#      more lives than a shard has cells, fails),
#   2. the shards print nothing on stdout,
#   3. --merge of the three checkpoints prints a report byte-identical
#      to tests/golden/fig12_mpki_20000.txt (the serial run),
#   4. the merge synthesises no traces (its trace cache stays empty).
#
# Usage: scripts/shard_chaos.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
BENCH=$BUILD/bench/fig12_mpki
[ -x "$BENCH" ] || {
    echo "error: build $BENCH first" >&2
    exit 1
}

WORK=$(mktemp -d /tmp/cbws-shard-chaos.XXXXXX)
trap 'rm -rf "$WORK"' EXIT
export CBWS_BENCH_INSTS=20000

SHARDS=3
MAX_LIVES=200 # a shard owns 144 of the 432 cells; each life adds >= 1
for i in $(seq 0 $((SHARDS - 1))); do
    lives=0
    while :; do
        lives=$((lives + 1))
        if [ "$lives" -gt "$MAX_LIVES" ]; then
            echo "error: shard $i unfinished after $MAX_LIVES lives" >&2
            exit 1
        fi
        # The outer 2> only silences bash's "Killed" job report.
        status=0
        {
            CBWS_FAULT=cell-kill@1 "$BENCH" --jobs=2 \
                --trace-cache="$WORK/traces" --shard="$i/$SHARDS" \
                --checkpoint="$WORK/s$i.ckpt" \
                > "$WORK/s$i.out" 2> "$WORK/s$i.err"
        } 2> /dev/null || status=$?
        case $status in
            0) break ;;
            137) ;;
            *)
                echo "error: shard $i exited $status" >&2
                cat "$WORK/s$i.err" >&2
                exit 1
                ;;
        esac
    done
    if [ -s "$WORK/s$i.out" ]; then
        echo "error: shard $i printed to stdout" >&2
        exit 1
    fi
    echo "shard $i/$SHARDS finished after $lives lives"
done

"$BENCH" --trace-cache="$WORK/merge-traces" \
    --merge="$WORK/s0.ckpt,$WORK/s1.ckpt,$WORK/s2.ckpt" \
    > "$WORK/merged.txt"
if [ -n "$(ls -A "$WORK/merge-traces" 2> /dev/null)" ]; then
    echo "error: the merge synthesised traces" >&2
    exit 1
fi
diff tests/golden/fig12_mpki_20000.txt "$WORK/merged.txt"
echo "shard chaos check passed"
