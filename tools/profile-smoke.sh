#!/usr/bin/env bash
# profile-smoke: end-to-end cost-attribution profiling check.
#
# Runs the seeded campaign twice:
#   1. -spans-out (deterministic)    -> spans file, workers 4
#   2. campaign-profile run mode     -> hotspot table + JSON report
# and asserts that the spans file and hotspot report validate with
# telemetry-check and that analyzing the file reproduces the report.
# That span recording leaves the table unchanged and the deterministic
# file identical at any -workers is checked by the Go harness
# (TestCampaignLayerInvariance). See docs/OBSERVABILITY.md.
set -euo pipefail

GO=${GO:-go}
WORK=${PROFILE_SMOKE_DIR:-profile-smoke}
ARGS=(-budget 120 -tvbudget 4000 -seed 7
      -only 53252,53218,55201,55287,58423,59757,64687)

rm -rf "$WORK"
mkdir -p "$WORK"
FUZZ="$WORK/fuzz-campaign"
PROFILE="$WORK/campaign-profile"
CHECK="$WORK/telemetry-check"
$GO build -o "$FUZZ" ./cmd/fuzz-campaign
$GO build -o "$PROFILE" ./cmd/campaign-profile
$GO build -o "$CHECK" ./cmd/telemetry-check

echo "profile-smoke: recording run (deterministic spans, workers 4)"
"$FUZZ" "${ARGS[@]}" -workers 4 -spans-out "$WORK/spans-w4.jsonl" \
    -spans-deterministic >/dev/null

echo "profile-smoke: validating the spans file and its hotspot table"
"$CHECK" -hotspots "$WORK/spans-w4.jsonl" > "$WORK/hotspots-check.txt"
grep -q 'top seed functions by TV cost' "$WORK/hotspots-check.txt" || {
    echo "profile-smoke: hotspot table names no seed functions"; exit 1; }

echo "profile-smoke: campaign-profile run mode"
"$PROFILE" -workers 4 -deterministic -json "$WORK/hotspots.json" \
    > "$WORK/hotspots-table.txt"
for section in 'top units by TV cost' 'top seed functions by TV cost' \
               'top mutants by TV cost' 'top formula fingerprints by TV cost'; do
    grep -q "$section" "$WORK/hotspots-table.txt" || {
        echo "profile-smoke: report is missing '$section'"; exit 1; }
done

echo "profile-smoke: analyze mode over the recorded file agrees with run mode"
"$PROFILE" "$WORK/spans-w4.jsonl" > "$WORK/hotspots-analyzed.txt"
cmp "$WORK/hotspots-table.txt" "$WORK/hotspots-analyzed.txt"

echo "profile-smoke: hotspot JSON validates by schema dispatch"
"$CHECK" "$WORK/hotspots.json"

echo "profile-smoke: OK (spans valid and attributable)"
