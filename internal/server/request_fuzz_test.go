package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// FuzzEvaluateRequest: any /v1/evaluate body decodes, the way
// handleEvaluate decodes it, to an error or a request, and normalize
// gives an error or a value, never a panic. A normalized request is a
// fixed point of normalize, and re-encoding it — what persistRequest
// writes and a restarted server reads back — keeps its job id.
func FuzzEvaluateRequest(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"experiments":["table5"],"scale":0.01,"seed":7}`,
		`{"experiments":["table5"],"shard_size":64,"corpus_csv":"app,hex,freq\nfoo,4801d8,3\nbar,90,1\n"}`,
		`{"asm":"@ foo 2\nadd rax, rbx\nimul rcx, rdx\n@ bar\naddq $1, %rdi\n"}`,
		`{"backends":["sim","perturbed"],"scale":0.005,"uarch":"haswell"}`,
		`{"backends":["recorded:/tmp/t.trace"],"experiments":["xval"]}`,
		`{"experiments":["all"],"train_ithemal":true,"ithemal_epochs":2}`,
		`{"experiments":["nope"]}`,
		`{"backends":["sim","sim"]}`,
		`{"backends":["recorded"]}`,
		`{"uarch":"zen9"}`,
		`{"asm":"@ foo\nnot_an_instruction\n"}`,
		`{"asm":"@ foo\nnop\n","corpus_csv":"app,hex,freq\nfoo,90,1\n"}`,
		`{"corpus_csv":"app,hex,freq\nfoo,90,1\nfoo,zz,1\n"}`,
		`{"scale":-1,"seed":0,"shard_size":-5}`,
		`{"experiments":"table5"}`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		if err := req.normalize(); err != nil {
			return
		}
		id, err := req.id()
		if err != nil {
			t.Fatalf("normalized request has no id: %v", err)
		}

		again := req
		again.Experiments = slices.Clone(req.Experiments)
		again.Backends = slices.Clone(req.Backends)
		if err := again.normalize(); err != nil {
			t.Fatalf("normalize rejects its own output %+v: %v", req, err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("normalize is not idempotent:\n first %+v\nsecond %+v", req, again)
		}

		raw, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("normalized request does not encode: %v", err)
		}
		var back Request
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", raw, err)
		}
		if err := back.normalize(); err != nil {
			t.Fatalf("re-encoded request %s does not normalize: %v", raw, err)
		}
		if got, err := back.id(); err != nil || got != id {
			t.Fatalf("re-encoded request %s has id %s (%v), want %s", raw, got, err, id)
		}
	})
}
