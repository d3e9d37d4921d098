package dist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// FuzzLease throws arbitrary bytes at the lease payload, decoded the way
// the worker decodes a coordinator response. Any input yields an error or
// a Lease, never a panic, and a decoded Lease survives encode then decode
// unchanged.
func FuzzLease(f *testing.F) {
	good, err := json.Marshal(Lease{
		ID: "l-1", JobID: "j-abc", Fingerprint: "fp",
		Shards:   []ShardRef{{Arch: "haswell", Shard: 0}, {Arch: "skylake", Shard: 3}},
		Deadline: time.Date(2026, 1, 1, 0, 2, 0, 0, time.UTC),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"shards":null,"deadline":"2026-01-01T00:02:00.5+05:30"}`))
	f.Add([]byte(`{"shards":[{"arch":"x","shard":-1}],"deadline":"bad"}`))
	f.Add([]byte(`{"id":"é\ud800","shards":[{}],"extra":1}`))
	f.Add(good[:len(good)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		var l Lease
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&l); err != nil {
			return
		}
		enc, err := json.Marshal(l)
		if err != nil {
			t.Fatalf("decoded lease %+v does not encode: %v", l, err)
		}
		var again Lease
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("encoded lease %s does not decode: %v", enc, err)
		}
		if !again.Deadline.Equal(l.Deadline) {
			t.Fatalf("deadline %v became %v", l.Deadline, again.Deadline)
		}
		again.Deadline, l.Deadline = time.Time{}, time.Time{}
		if !reflect.DeepEqual(again, l) {
			t.Fatalf("round trip changed the lease:\n%+v\n%+v", l, again)
		}
	})
}
