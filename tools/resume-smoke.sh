#!/usr/bin/env bash
# resume-smoke: end-to-end kill-and-resume invariance check.
#
# Runs the seeded campaign three times:
#   1. uninterrupted            -> reference table + triage tree
#   2. with checkpointing, then SIGKILL mid-campaign (no cleanup runs)
#   3. -resume from the checkpoint, at a different -workers value,
#      appending to the killed run's journal
# and asserts the resumed run's table and triage tree are byte-identical
# to the reference, and that the journal records a campaign_resumed
# event. See docs/CHECKPOINTING.md.
set -euo pipefail

GO=${GO:-go}
WORK=${RESUME_SMOKE_DIR:-resume-smoke}
# The SIGKILL below lands as soon as the checkpoint and the journal show
# a completed unit. Sized so the run goes on well past that: on a 2-core
# machine it takes about 2s at 2 workers, the first unit reaches the
# checkpoint after about 0.6s, and the long 53252 and 55484 units run
# until the end.
ARGS=(-budget 6000 -tvbudget 4000 -seed 7
      -only 53252,53218,55201,55287,58423,59757,64687,55129,55484)

rm -rf "$WORK"
mkdir -p "$WORK"
BIN="$WORK/fuzz-campaign"
$GO build -o "$BIN" ./cmd/fuzz-campaign

echo "resume-smoke: reference (uninterrupted) run"
"$BIN" "${ARGS[@]}" -workers 4 \
    -out "$WORK/table-ref.txt" -triage-dir "$WORK/triage-ref" >/dev/null

echo "resume-smoke: checkpointed run, SIGKILL mid-campaign"
"$BIN" "${ARGS[@]}" -workers 2 \
    -checkpoint-dir "$WORK/ckpt" -checkpoint-interval 100ms \
    -journal "$WORK/journal.jsonl" \
    -out "$WORK/table-killed.txt" -triage-dir "$WORK/triage-killed" \
    >/dev/null &
pid=$!
# Kill as soon as a unit completion shows up in both the checkpoint and
# the journal: the resume then restores some units and re-runs the rest,
# and the killed run's events have reached the journal it appends to.
checkpointed() {
    grep -qs '"line":"unit"' "$WORK/ckpt/checkpoint.jsonl" &&
        grep -qs '"event":"unit_finish"' "$WORK/journal.jsonl"
}
for _ in $(seq 1 500); do
    checkpointed && break
    sleep 0.02
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
checkpointed || {
    echo "resume-smoke: no unit completion reached the checkpoint and journal"; exit 1; }
if [ -f "$WORK/table-killed.txt" ]; then
    echo "resume-smoke: killed run completed before SIGKILL, so the resume" \
         "would not start mid-run; raise the budget in ARGS"
    exit 1
fi
echo "resume-smoke: killed with $(grep -c '"line":"unit"' "$WORK/ckpt/checkpoint.jsonl") unit(s) checkpointed"

echo "resume-smoke: resuming at a different worker count"
"$BIN" "${ARGS[@]}" -workers 8 -resume \
    -checkpoint-dir "$WORK/ckpt" -checkpoint-interval 100ms \
    -journal "$WORK/journal.jsonl" \
    -out "$WORK/table-resumed.txt" -triage-dir "$WORK/triage-resumed" \
    >/dev/null

echo "resume-smoke: comparing tables and triage trees"
cmp "$WORK/table-ref.txt" "$WORK/table-resumed.txt"
diff -r "$WORK/triage-ref" "$WORK/triage-resumed"
grep -q '"event":"campaign_resumed"' "$WORK/journal.jsonl" || {
    echo "resume-smoke: journal has no campaign_resumed event"; exit 1; }
# The journal must hold BOTH runs: two campaign_start events, appended.
starts=$(grep -c '"event":"campaign_start"' "$WORK/journal.jsonl")
[ "$starts" -eq 2 ] || {
    echo "resume-smoke: journal has $starts campaign_start event(s), want 2"; exit 1; }

echo "resume-smoke: OK (table and triage tree byte-identical across kill/resume)"
