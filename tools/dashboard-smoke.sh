#!/usr/bin/env bash
# dashboard-smoke: end-to-end check of the live observability endpoint.
#
# Starts a seeded campaign with `-metrics-addr 127.0.0.1:0` (ephemeral
# port, parsed from the startup banner) and, while it runs:
#   - probes every route on the single listener: the dashboard (/),
#     /healthz, /api/status, /api/units, /api/groups, /metrics.json,
#     /metrics/prometheus
#   - tails 10 events from the /api/events SSE stream
#   - validates the /api/status capture and lints the Prometheus capture
#     with telemetry-check (-status / -prom)
# then waits for the campaign to finish cleanly. The -prom -against
# cross-check needs both captures taken at the same instant, which a live
# campaign can't provide over two HTTP requests; the Go tests
# (TestServeFullSurface, TestCampaignResumeObservability) cover it on a
# quiescent collector. See docs/OBSERVABILITY.md.
set -euo pipefail

GO=${GO:-go}
WORK=${DASHBOARD_SMOKE_DIR:-dashboard-smoke}
# Budget sized like resume-smoke's: ~10s at 2 workers, so the probes and
# the SSE tail reliably land mid-campaign.
ARGS=(-budget 1200 -tvbudget 4000 -seed 7 -workers 2
      -only 53252,53218,55201,55287,58423,59757,64687)

rm -rf "$WORK"
mkdir -p "$WORK"
BIN="$WORK/fuzz-campaign"
CHECK="$WORK/telemetry-check"
$GO build -o "$BIN" ./cmd/fuzz-campaign
$GO build -o "$CHECK" ./cmd/telemetry-check

echo "dashboard-smoke: starting a campaign with the dashboard on an ephemeral port"
"$BIN" "${ARGS[@]}" -metrics-addr 127.0.0.1:0 \
    -journal "$WORK/journal.jsonl" -out "$WORK/table.txt" \
    >"$WORK/stdout.log" 2>"$WORK/stderr.log" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

base=""
for _ in $(seq 1 100); do
    base=$(sed -n 's#^fuzz-campaign: dashboard at http://\([^/]*\)/.*#\1#p' "$WORK/stderr.log" | head -n 1)
    [ -n "$base" ] && break
    kill -0 "$pid" 2>/dev/null || {
        cat "$WORK/stderr.log" >&2
        echo "dashboard-smoke: campaign exited before announcing the dashboard"; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { echo "dashboard-smoke: no dashboard banner in stderr"; exit 1; }
echo "dashboard-smoke: endpoint at http://$base/"

# Capture each body before grepping it: `curl | grep -q` under pipefail
# fails when grep exits early and curl cannot finish writing the body.
curl -fsS "http://$base/healthz"            >"$WORK/healthz.txt"
grep -qx ok "$WORK/healthz.txt" || {
    echo "dashboard-smoke: /healthz did not answer ok"; exit 1; }
curl -fsS "http://$base/"                   >"$WORK/index.html"
grep -qi '<html' "$WORK/index.html" || {
    echo "dashboard-smoke: / did not serve the dashboard HTML"; exit 1; }
curl -fsS "http://$base/api/status"         >"$WORK/status.json"
curl -fsS "http://$base/api/units"          >"$WORK/units.json"
curl -fsS "http://$base/api/groups"         >"$WORK/groups.json"
curl -fsS "http://$base/metrics.json"       >"$WORK/metrics.json"
curl -fsS "http://$base/metrics/prometheus" >"$WORK/prometheus.txt"

echo "dashboard-smoke: tailing 10 SSE events"
(timeout 30 curl -fsSN "http://$base/api/events?after=0" 2>/dev/null || true) \
    | grep '^data: ' | head -n 10 >"$WORK/events.txt" || true
n=$(wc -l <"$WORK/events.txt")
[ "$n" -ge 10 ] || {
    echo "dashboard-smoke: only $n SSE events arrived (want 10)"; exit 1; }
grep -q '"event":"campaign_start"' "$WORK/events.txt" || {
    echo "dashboard-smoke: SSE tail from seq 0 is missing campaign_start"; exit 1; }

echo "dashboard-smoke: validating captures with telemetry-check"
"$CHECK" -status "$WORK/status.json"
"$CHECK" -prom "$WORK/prometheus.txt"
"$CHECK" "$WORK/metrics.json"

wait "$pid"
trap - EXIT
[ -s "$WORK/table.txt" ] || {
    echo "dashboard-smoke: campaign produced no result table"; exit 1; }

echo "dashboard-smoke: OK (dashboard, status API, SSE stream, and Prometheus exposition all served from one listener)"
