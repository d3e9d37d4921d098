#!/usr/bin/env bash
# End-to-end smoke of the evaluation service: build and start bhive-serve,
# drive it over HTTP, and hold its results against the repo's goldens.
#
#   1. A generated-corpus job at the golden configuration (table5, scale
#      0.02, seed 7) must render byte-identically to the recorded golden
#      internal/harness/testdata/table5_seed7_scale002.golden.
#   2. An API-submitted corpus (the blocklint example corpus) must agree
#      byte-for-byte with the batch CLI (bhive-eval) on the same input.
#
# Used by CI (.github/workflows/ci.yml, job serve-smoke) and runnable
# locally: ./scripts/serve_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-8423}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "smoke: building bhive-serve"
go build -o "$WORK/bhive-serve" ./cmd/bhive-serve
"$WORK/bhive-serve" -addr "127.0.0.1:$PORT" -data "$WORK/state" &
SRV_PID=$!

for _ in $(seq 1 100); do
  curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$BASE/v1/healthz" >/dev/null

# submit_and_wait BODY -> job id (BODY may be @file)
submit_and_wait() {
  local body="$1" id state
  id=$(curl -fsS "$BASE/v1/evaluate" -d "$body" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
  for _ in $(seq 1 600); do
    state=$(curl -fsS "$BASE/v1/jobs/$id" \
      | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
    case "$state" in
      done) echo "$id"; return 0 ;;
      failed)
        echo "smoke: job $id failed:" >&2
        curl -fsS "$BASE/v1/jobs/$id" >&2
        return 1 ;;
    esac
    sleep 1
  done
  echo "smoke: timed out waiting for job $id" >&2
  return 1
}

result_text() { # ID -> rendered text of the first experiment
  curl -fsS "$BASE/v1/jobs/$1/result" \
    | python3 -c 'import json,sys; sys.stdout.write(json.load(sys.stdin)["experiments"][0]["text"])'
}

echo "smoke: golden-configuration job (table5, scale 0.02, seed 7)"
ID=$(submit_and_wait '{"experiments":["table5"],"scale":0.02,"seed":7}')
result_text "$ID" > "$WORK/table5.txt"
diff -u internal/harness/testdata/table5_seed7_scale002.golden "$WORK/table5.txt"
echo "smoke: table5 matches the golden"

echo "smoke: SSE replay for job $ID"
curl -fsS -N --max-time 10 "$BASE/v1/jobs/$ID/events" > "$WORK/events.txt" || true
grep -q "shard" "$WORK/events.txt"
grep -q "^event: done" "$WORK/events.txt"
echo "smoke: SSE stream replayed per-shard progress and terminated"

echo "smoke: API-submitted corpus (blocklint example corpus)"
# The raw example corpus ends in deliberately-undecodable rows (it is a
# lint fixture); submitting it must be rejected with the offending line.
python3 - > "$WORK/bad_req.json" <<'EOF'
import json
with open("internal/blocklint/testdata/example_corpus.csv") as f:
    csv = f.read()
print(json.dumps({"experiments": ["table5"], "corpus_csv": csv}))
EOF
curl -sS "$BASE/v1/evaluate" -d "@$WORK/bad_req.json" > "$WORK/bad_resp.json"
grep -q '"error"' "$WORK/bad_resp.json"
grep -q "line 742" "$WORK/bad_resp.json"
echo "smoke: undecodable corpus rejected with the offending line number"

# The decodable subset (everything but the pathological lint rows) must
# evaluate identically through the service and the batch CLI.
grep -v '^pathological,' internal/blocklint/testdata/example_corpus.csv \
  > "$WORK/example_corpus_ok.csv"
python3 - "$WORK/example_corpus_ok.csv" > "$WORK/corpus_req.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    csv = f.read()
print(json.dumps({"experiments": ["table5"], "shard_size": 128,
                  "scale": 0.002, "corpus_csv": csv}))
EOF
ID2=$(submit_and_wait "@$WORK/corpus_req.json")
result_text "$ID2" > "$WORK/srv_corpus_table5.txt"
go run ./cmd/bhive-eval -exp table5 -scale 0.002 \
  -corpus "$WORK/example_corpus_ok.csv" > "$WORK/cli_corpus_table5.txt"
diff -u "$WORK/cli_corpus_table5.txt" "$WORK/srv_corpus_table5.txt"
echo "smoke: service output matches the batch CLI on the same corpus"

echo "smoke: graceful shutdown"
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=""
echo "smoke: OK"
