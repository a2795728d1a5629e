#!/usr/bin/env bash
# Campaign-daemon smoke test: crash recovery and graceful drain.
#
# Phase 1 (SIGKILL): starts `permea-server`, submits two smoke campaigns
# from two tenants (different seeds), SIGKILLs the daemon mid-flight, and
# restarts it over the same state directory. The write-ahead ledger must
# re-queue both campaigns and both results must come out byte-identical to
# standalone `study` runs of the same presets.
#
# Phase 2 (SIGTERM): starts a fresh daemon, submits a quick campaign
# (9360 runs — long enough that the signal lands mid-flight), SIGTERMs the
# daemon and requires exit 0 with the metrics snapshot flushed and the
# socket removed. A restart then finishes the campaign without re-running
# any journaled work: every injection run appends exactly one journal
# record, so the final journal must hold exactly the preset's 9360 records.
#
# Usage: scripts/server_smoke.sh [path-to-target-dir]
#
# Set ARTIFACT_DIR to keep the daemon logs and the drained metrics
# snapshot after the run (CI uploads them).

set -euo pipefail

TARGET="${1:-target/release}"
for bin in permea-server permea-cli study; do
    if [[ ! -x "$TARGET/$bin" ]]; then
        echo "building $bin..."
        cargo build --release -p permea-analysis --bin "$bin"
    fi
done
SERVER="$TARGET/permea-server"
CLI="$TARGET/permea-cli"
STUDY="$TARGET/study"

WORK="$(mktemp -d)"
SRV=""
keep_artifacts() {
    if [[ -n "${ARTIFACT_DIR:-}" ]]; then
        mkdir -p "$ARTIFACT_DIR"
        cp "$WORK"/server*.log "$ARTIFACT_DIR/" 2>/dev/null || true
        cp "$WORK/state2/metrics.json" "$ARTIFACT_DIR/drain-metrics.json" 2>/dev/null || true
    fi
}
trap 'if [[ -n "$SRV" ]]; then kill -9 "$SRV" 2>/dev/null || true; fi; keep_artifacts; rm -rf "$WORK"' EXIT

wait_for_socket() {
    local sock="$1"
    for _ in $(seq 1 200); do
        if [[ -S "$sock" ]] && "$CLI" --socket "$sock" status >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.05
    done
    echo "FAIL: daemon never came up on $sock" >&2
    exit 1
}

# Waits for the daemon to exit and returns its exit status. A daemon still
# running after DRAIN_TIMEOUT_S seconds is killed, its log is printed and
# the script fails, so a drain that never completes cannot hang the run.
DRAIN_TIMEOUT_S=120
wait_daemon() {
    local log="$1"
    for _ in $(seq 1 $((DRAIN_TIMEOUT_S * 20))); do
        if ! kill -0 "$SRV" 2>/dev/null; then
            wait "$SRV"
            return
        fi
        sleep 0.05
    done
    echo "FAIL: daemon did not exit within ${DRAIN_TIMEOUT_S}s; its log:" >&2
    cat "$log" >&2
    kill -9 "$SRV" 2>/dev/null || true
    wait "$SRV" 2>/dev/null || true
    SRV=""
    exit 1
}

journal_lines() {
    wc -l <"$1" 2>/dev/null || echo 0
}

echo "== standalone reference runs =="
"$STUDY" --smoke --out "$WORK/ref-alice" --threads 1 >"$WORK/ref-alice.log" 2>&1
"$STUDY" --smoke --seed 99 --out "$WORK/ref-bob" --threads 1 >"$WORK/ref-bob.log" 2>&1
"$STUDY" --quick --out "$WORK/ref-quick" >"$WORK/ref-quick.log" 2>&1

echo "== phase 1: SIGKILL mid-flight, restart, byte-identical results =="
STATE="$WORK/state"
SOCK="$STATE/permea.sock"
"$SERVER" --state "$STATE" --slots 2 --slice-runs 16 >"$WORK/server1.log" 2>&1 &
SRV=$!
wait_for_socket "$SOCK"

ID_ALICE=$("$CLI" --socket "$SOCK" submit --tenant alice --preset smoke)
ID_BOB=$("$CLI" --socket "$SOCK" submit --tenant bob --preset smoke --seed 99)
echo "submitted campaigns $ID_ALICE (alice) and $ID_BOB (bob, seed 99)"

# Pull the plug once both campaigns have journaled some runs but before
# the 104-run grids can finish. If the daemon outraces us, recovery still
# has to replay the closed ledger records correctly.
for _ in $(seq 1 200); do
    A=$(journal_lines "$STATE/campaigns/$ID_ALICE/journal.jsonl")
    B=$(journal_lines "$STATE/campaigns/$ID_BOB/journal.jsonl")
    if [[ "$A" -ge 8 && "$B" -ge 8 ]] || ! kill -0 "$SRV" 2>/dev/null; then
        break
    fi
    sleep 0.05
done
kill -9 "$SRV" 2>/dev/null || true
wait "$SRV" 2>/dev/null || true
SRV=""
echo "SIGKILLed the daemon with $A + $B runs journaled"

"$SERVER" --state "$STATE" --slots 2 --slice-runs 16 >"$WORK/server2.log" 2>&1 &
SRV=$!
wait_for_socket "$SOCK"
"$CLI" --socket "$SOCK" watch "$ID_ALICE" 2>/dev/null
"$CLI" --socket "$SOCK" watch "$ID_BOB" 2>/dev/null
echo "both campaigns completed after restart"

cmp "$STATE/campaigns/$ID_ALICE/result.json" "$WORK/ref-alice/result.json"
cmp "$STATE/campaigns/$ID_BOB/result.json" "$WORK/ref-bob/result.json"
echo "results are byte-identical to the standalone runs"

"$CLI" --socket "$SOCK" shutdown >/dev/null 2>&1
wait_daemon "$WORK/server2.log"
SRV=""

echo "== phase 2: SIGTERM drains with exit 0, restart re-runs nothing =="
STATE="$WORK/state2"
SOCK="$STATE/permea.sock"
"$SERVER" --state "$STATE" --slots 1 --slice-runs 16 >"$WORK/server3.log" 2>&1 &
SRV=$!
wait_for_socket "$SOCK"

ID=$("$CLI" --socket "$SOCK" submit --tenant carol --preset quick)
JOURNAL="$STATE/campaigns/$ID/journal.jsonl"
for _ in $(seq 1 400); do
    if [[ "$(journal_lines "$JOURNAL")" -ge 200 ]] || ! kill -0 "$SRV" 2>/dev/null; then
        break
    fi
    sleep 0.05
done

kill -TERM "$SRV"
if ! wait_daemon "$WORK/server3.log"; then
    echo "FAIL: SIGTERM drain did not exit 0" >&2
    exit 1
fi
SRV=""
DRAINED=$(journal_lines "$JOURNAL")
if [[ ! -f "$STATE/metrics.json" ]]; then
    echo "FAIL: drain did not flush metrics.json" >&2
    exit 1
fi
if [[ -e "$SOCK" ]]; then
    echo "FAIL: drain did not remove the socket" >&2
    exit 1
fi
if [[ "$DRAINED" -ge 9361 ]]; then
    echo "note: the quick campaign outraced the drain; restart still replays it"
fi
echo "SIGTERM drain exited 0 with $((DRAINED - 1)) run(s) journaled"

"$SERVER" --state "$STATE" --slots 1 --slice-runs 16 >"$WORK/server4.log" 2>&1 &
SRV=$!
wait_for_socket "$SOCK"
"$CLI" --socket "$SOCK" watch "$ID" 2>/dev/null
"$CLI" --socket "$SOCK" shutdown >/dev/null 2>&1
wait_daemon "$WORK/server4.log"
SRV=""

cmp "$STATE/campaigns/$ID/result.json" "$WORK/ref-quick/result.json"
# One journal record per executed run: exactly header + 9360 records means
# the restart resumed the drained campaign without re-running anything.
FINAL=$(journal_lines "$JOURNAL")
if [[ "$FINAL" -ne 9361 ]]; then
    echo "FAIL: expected 9361 journal lines (header + 9360 runs), got $FINAL" >&2
    exit 1
fi

echo "PASS: SIGKILL recovery is byte-identical and SIGTERM drain is clean" \
     "(phase 1: $A+$B runs survived the kill; phase 2: $((DRAINED - 1))" \
     "runs drained, $((FINAL - 1)) total, none re-run)"
