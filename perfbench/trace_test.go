package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/node"
	"repro/internal/transport"
)

// pair wires two loopback endpoints, a sender and a receiver whose
// handler echoes the request's key into the reply or fails on demand;
// with tr non-nil both endpoints are decorated.
func pair(t *testing.T, tr *tracer) (from transport.Transport, to string) {
	lb := transport.NewLoopback()
	var a, b transport.Transport = lb.Endpoint("a"), lb.Endpoint("b")
	if tr != nil {
		a, b = &timedTransport{inner: a, tr: tr}, &timedTransport{inner: b, tr: tr}
	}
	b.SetHandler(func(from string, req *transport.Message) (*transport.Message, error) {
		if string(req.Key) == "fail" {
			return nil, errors.New("handler refused")
		}
		return &transport.Message{Kind: req.Kind, Partition: req.Partition + 1, Version: 7,
			Key: req.Key, Value: append([]byte(from+":"), req.Value...)}, nil
	})
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, "b"
}

func TestTimedTransportForwardsUnchanged(t *testing.T) {
	tr := newTracer()
	plainA, to := pair(t, nil)
	timedA, _ := pair(t, tr)
	reqs := []*transport.Message{
		{Kind: node.KindPut, Partition: 3, Key: []byte("k"), Value: []byte("v")},
		{Kind: node.KindSync, Version: 9, Key: []byte("fail")},
		{Kind: node.KindXferChunk, Session: 5, Cursor: 2, Value: make([]byte, 300)},
	}
	for _, req := range reqs {
		want, wantErr := plainA.Send(to, req)
		got, gotErr := timedA.Send(to, req)
		if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("kind %d: decorated reply %+v, %v; plain %+v, %v", req.Kind, got, gotErr, want, wantErr)
		}
	}
	// Transport errors pass through with their identity.
	_, err := timedA.Send("nobody", &transport.Message{Kind: node.KindGet})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("send to an unknown peer: %v, want ErrUnreachable", err)
	}
	if tr.sendErrs.Load() != 1 {
		t.Fatalf("send errors = %d, want 1", tr.sendErrs.Load())
	}
	for _, g := range []string{"put", "sync", "xfer"} {
		if n := len(tr.kindSamples(tr.send, g)); n != 1 {
			t.Errorf("%s: %d send samples, want 1", g, n)
		}
		if n := len(tr.kindSamples(tr.handle, g)); n != 1 {
			t.Errorf("%s: %d handler samples, want 1", g, n)
		}
	}
	if tr.sendBytes.Load() <= 300 {
		t.Fatalf("send bytes %d do not cover the 300-byte chunk", tr.sendBytes.Load())
	}
	tr.reset()
	if len(tr.kindSamples(tr.send, "put")) != 0 || tr.sendErrs.Load() != 0 {
		t.Fatal("reset kept samples")
	}
}

func TestKindGroupsCoverProtocol(t *testing.T) {
	groups := map[string]bool{}
	for _, g := range kindGroups {
		groups[g] = true
	}
	for k, name := range node.KindNames {
		if k < 64 && name != "drop" && name != "ping" && !groups[kindGroup(k)] {
			t.Errorf("node-to-node kind %s has no metric group", name)
		}
	}
}

// TestSimDecoratorsKeepDigest: timing the generator and the policy must
// not change what the simulator computes, and a seed's digest repeats.
func TestSimDecoratorsKeepDigest(t *testing.T) {
	const epochs = 12
	run := func(seed uint64, tr *tracer) uint64 {
		se, err := buildSim(seed, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer se.eng.Close()
		for i := 0; i < epochs; i++ {
			if err := se.eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := se.eng.Recorder().Validate(); err != nil {
			t.Fatal(err)
		}
		return digest(se.eng.Recorder(), epochs)
	}
	tr := newTracer()
	plain := run(3, nil)
	if traced := run(3, tr); traced != plain {
		t.Fatalf("decorated digest %x, plain %x", traced, plain)
	}
	if again := run(3, nil); again != plain {
		t.Fatalf("seed 3 digests differ between runs: %x vs %x", again, plain)
	}
	if other := run(4, nil); other == plain {
		t.Fatal("seeds 3 and 4 give the same digest")
	}
	if n := len(tr.timer("sim.decide")); n != epochs {
		t.Fatalf("decide timed %d times over %d epochs", n, epochs)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for w := range workloads {
		code = append(code, w)
	}
	sort.Strings(names)
	sort.Strings(code)
	if !reflect.DeepEqual(names, code) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, code)
	}
	check := func(what string, json []struct{ Name, Unit string }, code []struct{ name, unit string }) {
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", what, len(json), len(code))
			return
		}
		for i := range code {
			if json[i].Name != code[i].name || json[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", what, i, json[i].Name, json[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
