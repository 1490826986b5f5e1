package main

import (
	"bytes"
	"testing"
)

// streamBytes renders the first n requests of a seed's warm stream, or
// of its cold operations, as one byte string: exactly what the daemons
// would receive, in order.
func streamBytes(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	inputs, err := warmInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, in := range inputs {
		buf.Write(in.Upload)
	}
	s := newCheckStream(seed, inputs)
	for i := 0; i < n; i++ {
		r, err := s.next()
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(r.Method + " " + r.Path + "\n")
		buf.Write(r.Body)
	}
	return buf.Bytes()
}

func coldBytes(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	ops, _, _, _, err := buildColdOps(seed, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, o := range ops {
		buf.WriteString(o.Due.String() + "\n")
		for _, r := range o.Reqs {
			buf.WriteString(r.Method + " " + r.Path + "\n")
			buf.Write(r.Body)
		}
	}
	return buf.Bytes()
}

// The request streams depend on the seed alone: the same seed gives
// byte-identical request bodies, another seed a different stream.
func TestStreamsAreSeeded(t *testing.T) {
	const warmReqs = 200 // more than one round, so round refills are covered
	a, b, c := streamBytes(t, 7, warmReqs), streamBytes(t, 7, warmReqs), streamBytes(t, 8, warmReqs)
	if !bytes.Equal(a, b) {
		t.Error("warm stream: the same seed gave different bytes")
	}
	if bytes.Equal(a, c) {
		t.Error("warm stream: seeds 7 and 8 gave the same bytes")
	}
	const coldOps = 4
	a, b, c = coldBytes(t, 7, coldOps), coldBytes(t, 7, coldOps), coldBytes(t, 8, coldOps)
	if !bytes.Equal(a, b) {
		t.Error("cold stream: the same seed gave different bytes")
	}
	if bytes.Equal(a, c) {
		t.Error("cold stream: seeds 7 and 8 gave the same bytes")
	}
}

// Every round of the warm stream covers every distinct check of every
// circuit, so two seeds differ in order, not in work.
func TestWarmRoundCoversEveryCheck(t *testing.T) {
	inputs, err := warmInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[checkKey]bool{}
	for i, in := range inputs {
		for _, k := range keysOf(i, in) {
			want[k] = true
		}
	}
	s := newCheckStream(3, inputs)
	for round := 0; round < 2; round++ {
		got := map[checkKey]bool{}
		for i := 0; i < s.roundLen(); i++ {
			r, err := s.next()
			if err != nil {
				t.Fatal(err)
			}
			if r.Round != round || len(r.Keys) != batchChecks {
				t.Fatalf("request %d of round %d: round %d, %d checks", i, round, r.Round, len(r.Keys))
			}
			for _, k := range r.Keys {
				if k.Circ != r.Circ {
					t.Fatalf("batch on circuit %d carries a check of circuit %d", r.Circ, k.Circ)
				}
				got[k] = true
			}
		}
		if len(got) != len(want) {
			t.Errorf("round %d covers %d distinct checks, want %d", round, len(got), len(want))
		}
	}
}
