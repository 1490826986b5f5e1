package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/server"
)

// servedC17 uploads c17 to an in-process lttad server and answers one
// streamed batch of every c17 check, returning the exchange and the
// references computed in-process.
func servedC17(t *testing.T) (*exchange, refTable, *circuitInput) {
	t.Helper()
	in, err := newInput("c17", gen.C17(10), func(top int64) []int64 { return []int64{top + 1, top, top - 10} })
	if err != nil {
		t.Fatal(err)
	}
	refs, err := referencesFor(0, in, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Workers: 2})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	lc := newLoadClient(hs.URL)
	t.Cleanup(lc.close)
	if err := verifyUpload(lc.do(context.Background(), uploadRequest(in, 0)), in, true); err != nil {
		t.Fatal(err)
	}
	req, err := checkRequest(in, 0, keysOf(0, in))
	if err != nil {
		t.Fatal(err)
	}
	return lc.do(context.Background(), req), refs, in
}

func TestServedAnswersMatchReferences(t *testing.T) {
	ex, refs, in := servedC17(t)
	v, err := verifyChecks(ex, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Answers) != len(keysOf(0, in)) {
		t.Errorf("%d answers for %d checks", len(v.Answers), len(keysOf(0, in)))
	}
	witnessed := false
	for _, a := range v.Answers {
		witnessed = witnessed || a.Res.Witness != ""
	}
	if !witnessed {
		t.Error("no check produced a witness, so witness replay went untested")
	}
}

// Corrupting any reference makes the oracle reject the served answer.
func TestOracleDetectsCorruptReference(t *testing.T) {
	ex, refs, _ := servedC17(t)
	corruptions := map[string]func(r *reference){
		"verdict": func(r *reference) {
			if r.Want.Final == "N" {
				r.Want.Final = "V"
			} else {
				r.Want.Final = "N"
			}
		},
		"backtracks":   func(r *reference) { r.Want.Backtracks++ },
		"propagations": func(r *reference) { r.Want.Propagations++ },
		"stage column": func(r *reference) { r.Want.AfterGITD += "x" },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			for k, ref := range refs {
				bad := refTable{}
				for k2, r2 := range refs {
					bad[k2] = r2
				}
				c := *ref
				corrupt(&c)
				bad[k] = &c
				if _, err := verifyChecks(ex, bad); err == nil {
					t.Fatalf("corrupt reference for %+v accepted", k)
				}
			}
		})
	}
}

// A served witness that does not settle where it claims fails replay,
// even when the reference was corrupted the same way.
func TestOracleReplaysWitnesses(t *testing.T) {
	ex, refs, _ := servedC17(t)
	for i, e := range ex.Events {
		if e.Type != "check" || e.Check.Witness == "" {
			continue
		}
		forged := *e.Check
		forged.WitnessSettle++
		ref := *refs[ex.Req.Keys[forged.Index]]
		ref.Want.WitnessSettle = forged.WitnessSettle
		if err := checkAnswer(forged, &ref, forged.Index); err == nil || !strings.Contains(err.Error(), "settles") {
			t.Errorf("event %d: forged settle time accepted: %v", i, err)
		}
		return
	}
	t.Fatal("no witness in the batch")
}

// A stream cut before its done line counts as a failure.
func TestOracleDetectsTruncatedStream(t *testing.T) {
	ex, refs, _ := servedC17(t)
	cut := *ex
	cut.Events, cut.Arrivals = ex.Events[:len(ex.Events)-1], ex.Arrivals[:len(ex.Arrivals)-1]
	if _, err := verifyChecks(&cut, refs); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated stream accepted: %v", err)
	}
}
