package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bhive/internal/corpus"
	"bhive/internal/harness"
)

// testCorpusCSV renders a small deterministic corpus in the interchange
// format (same generator, scale and seed as the harness resume tests).
func testCorpusCSV(t *testing.T) string {
	t.Helper()
	recs := corpus.GenerateAll(0.002, 7)
	var buf bytes.Buffer
	if err := corpus.WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postJob(t *testing.T, ts *httptest.Server, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var sr submitResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("submit response %q: %v", raw, err)
	}
	return sr
}

func jobStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitFor polls the job status until pred holds (the server works in the
// background; HTTP only observes it).
func waitFor(t *testing.T, ts *httptest.Server, id string, what string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		st := jobStatus(t, ts, id)
		if pred(st) {
			return st
		}
		if st.State == stateFailed {
			t.Fatalf("job failed while waiting for %s: %s", what, st.Detail)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
	return JobStatus{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, raw)
	}
	return raw
}

// sseDeadline bounds one readSSE call: a job that stops writing before
// the reader has what it waits for fails the test instead of hanging it.
const sseDeadline = 5 * time.Second

// readSSE collects "data:" lines from the events stream until n lines
// arrived or the stream ended; it returns the lines and whether a
// terminal "done" event was seen. It fails the test, reporting the lines
// seen so far, when the stream neither delivers them nor ends within
// sseDeadline.
func readSSE(t *testing.T, ts *httptest.Server, id string, n int) (lines []string, done bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), sseDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawDone := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			sawDone = true
			continue
		}
		if after, ok := strings.CutPrefix(line, "data: "); ok {
			if sawDone {
				return lines, true
			}
			lines = append(lines, after)
			if len(lines) >= n {
				return lines, false
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events stream: %v after %d data lines: %q", err, len(lines), lines)
	}
	return lines, false
}

// TestServerLifecycleGolden is the acceptance check from the issue:
// submit a job, watch progress over SSE, kill the server mid-job
// (graceful drain on a shard boundary — the crash-torn-journal case is
// covered by the checkpoint unit tests), restart it over the same data
// directory, and require /result bytes identical to an uninterrupted run
// of the same request on a pristine server.
func TestServerLifecycleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table5 at scale 0.002 twice (tens of seconds)")
	}
	body := fmt.Sprintf(`{"experiments":["table5"],"shard_size":64,"corpus_csv":%q}`, testCorpusCSV(t))

	// Reference: pristine server, uninterrupted run.
	refDir := t.TempDir()
	refSrv, err := New(Config{DataDir: refDir})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(refSrv.Handler())
	refID := postJob(t, refTS, body).ID
	waitFor(t, refTS, refID, "reference job", func(st JobStatus) bool { return st.State == stateDone })
	want := getResult(t, refTS, refID)
	refTS.Close()
	if err := refSrv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Interrupted: the first server stops the job after three computed
	// shards (a durable boundary — exactly what the SIGTERM drain does).
	dir := t.TempDir()
	s1, err := New(Config{DataDir: dir, StopAfterShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	sub := postJob(t, ts1, body)
	if sub.ID != refID {
		t.Fatalf("content-derived job id differs across servers: %s vs %s", sub.ID, refID)
	}

	// Progress must be observable over SSE while the job runs.
	lines, _ := readSSE(t, ts1, sub.ID, 2)
	if len(lines) < 2 {
		t.Fatalf("SSE delivered %d progress lines, want >= 2: %q", len(lines), lines)
	}
	for _, ln := range lines {
		if !strings.Contains(ln, "shard") {
			t.Fatalf("unexpected progress line %q", ln)
		}
	}

	// The shard budget sends the job back to the queue (state it would
	// also be in after a SIGTERM drain), with its shards checkpointed.
	st := waitFor(t, ts1, sub.ID, "interruption", func(st JobStatus) bool {
		return st.State == stateQueued && st.ProgressLines >= 3
	})
	if st.Metrics == nil || st.Metrics.Profiled == 0 {
		t.Fatalf("no profiling metrics before interruption: %+v", st.Metrics)
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart over the same data directory: the job is re-queued, resumes
	// from the checkpoint, and completes.
	s2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Shutdown(context.Background())

	waitFor(t, ts2, sub.ID, "resumed completion", func(st JobStatus) bool { return st.State == stateDone })
	got := getResult(t, ts2, sub.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result diverged from the uninterrupted run.\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}

	// The resumed run's replayed event stream must show checkpointed
	// shards being reused, and must terminate with a done event.
	all, done := readSSE(t, ts2, sub.ID, 1<<30)
	if !done {
		t.Fatal("events stream of a done job did not end with a done event")
	}
	resumed := false
	for _, ln := range all {
		if strings.Contains(ln, "resumed from checkpoint") {
			resumed = true
			break
		}
	}
	if !resumed {
		t.Fatalf("no shard was resumed from the checkpoint; progress: %q", all)
	}

	// Resubmitting the finished request attaches to the done job.
	again := postJob(t, ts2, body)
	if again.ID != sub.ID || again.State != stateDone {
		t.Fatalf("resubmission = %+v, want done job %s", again, sub.ID)
	}
}

func TestSubmitValidation(t *testing.T) {
	srv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, body, wantInError string
	}{
		{"bad json", `{`, "bad request body"},
		{"unknown experiment", `{"experiments":["table99"]}`, "unknown experiment"},
		{"unknown uarch", `{"uarch":"zen4"}`, "zen4"},
		{"bad corpus row", `{"corpus_csv":"app,hex,freq\nfoo,90,1\nfoo,zz,1\n"}`, "line 3"},
		{"duplicate corpus row", `{"corpus_csv":"app,hex,freq\nfoo,90,1\nfoo,90,2\n"}`, "duplicate block row"},
		{"bad asm", `{"asm":"@ foo\nnot_an_instruction\n"}`, "asm:"},
		// The listing's own header line is named, not a line of the CSV it
		// is converted to.
		{"comma in asm app", `{"asm":"@ foo\nnop\n@ my,app\nnop\n"}`, "asm: corpus: line 3: app name"},
		{"asm and csv", `{"asm":"@ foo\nnop\n","corpus_csv":"app,hex,freq\nfoo,90,1\n"}`, "mutually exclusive"},
		{"unknown backend", `{"backends":["hardware"]}`, "unknown spec"},
		{"bare recorded backend", `{"backends":["recorded"]}`, "recorded needs a trace path"},
		{"duplicate backend", `{"backends":["sim","sim"]}`, "duplicate backend spec"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, raw)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(raw, &er); err != nil || !strings.Contains(er.Error, tc.wantInError) {
			t.Errorf("%s: error %q does not mention %q", tc.name, raw, tc.wantInError)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestRequestIDNormalization: spelling out a default must produce the
// same job id as omitting it — the id digests the normalized request.
func TestRequestIDNormalization(t *testing.T) {
	a := Request{}
	b := Request{Experiments: []string{"table5"}, Scale: 0.02, Seed: 7, IthemalEpochs: 12, ShardSize: 512}
	if err := a.normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.normalize(); err != nil {
		t.Fatal(err)
	}
	ida, err := a.id()
	if err != nil {
		t.Fatal(err)
	}
	idb, err := b.id()
	if err != nil {
		t.Fatal(err)
	}
	if ida != idb {
		t.Fatalf("normalized ids differ: %s vs %s", ida, idb)
	}
	c := Request{Seed: 8}
	if err := c.normalize(); err != nil {
		t.Fatal(err)
	}
	idc, err := c.id()
	if err != nil {
		t.Fatal(err)
	}
	if idc == ida {
		t.Fatal("different seeds share a job id")
	}
}

// TestAsmCorpusIdentity: the same corpus submitted as an assembly listing
// or as canonical hex must land on the same job id — normalization folds
// the listing into CorpusCSV through the encoder before the id digests it.
func TestAsmCorpusIdentity(t *testing.T) {
	asm := Request{Asm: "@ foo 3\nxor ecx, ecx   # intel\ndivl %ecx       ; at&t\n@ bar\nnop\n"}
	hex := Request{CorpusCSV: "app,hex,freq\nfoo,31c9f7f1,3\nbar,90,1\n"}
	if err := asm.normalize(); err != nil {
		t.Fatal(err)
	}
	if err := hex.normalize(); err != nil {
		t.Fatal(err)
	}
	if asm.Asm != "" {
		t.Fatalf("normalize left Asm populated: %q", asm.Asm)
	}
	if asm.CorpusCSV != hex.CorpusCSV {
		t.Fatalf("asm corpus normalized to:\n%q\nwant:\n%q", asm.CorpusCSV, hex.CorpusCSV)
	}
	ida, err := asm.id()
	if err != nil {
		t.Fatal(err)
	}
	idh, err := hex.id()
	if err != nil {
		t.Fatal(err)
	}
	if ida != idh {
		t.Fatalf("asm job id %s != hex job id %s for the same corpus", ida, idh)
	}
}

// TestBackendsDefaultExperiment: submitting backends without naming an
// experiment means cross-validation — that's what backends are for.
func TestBackendsDefaultExperiment(t *testing.T) {
	r := Request{Backends: []string{"sim", "perturbed"}}
	if err := r.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(r.Experiments) != 1 || r.Experiments[0] != harness.XValID {
		t.Fatalf("experiments = %v, want [%s]", r.Experiments, harness.XValID)
	}
}
