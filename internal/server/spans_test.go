package server

import (
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
)

// TestSpanSummaryKeepsSubMicrosecondStages pins that a stage that ran
// gets its span even when it took under a microsecond (a check the
// base snapshot refutes runs stage 1 that fast), while stages whose
// verdict column is "-" get none.
func TestSpanSummaryKeepsSubMicrosecondStages(t *testing.T) {
	b := &batch{batchHead: &batchHead{req: &Request{}}}
	for _, tc := range []struct {
		name string
		res  CheckResult
		want []api.Span
	}{
		{"sub-µs stage 1", CheckResult{BeforeGITD: "N", AfterGITD: "-", AfterStem: "-", CaseAnalysis: "-",
			StageUs: []int64{0, 0, 0, 0}},
			[]api.Span{{Name: core.StagePlain.String(), StartUs: 0, DurUs: 0}}},
		{"three stages", CheckResult{BeforeGITD: "P", AfterGITD: "P", AfterStem: "N", CaseAnalysis: "-",
			StageUs: []int64{0, 5, 3, 0}},
			[]api.Span{
				{Name: core.StagePlain.String(), StartUs: 0, DurUs: 0},
				{Name: core.StageGITD.String(), StartUs: 0, DurUs: 5},
				{Name: core.StageStem.String(), StartUs: 5, DurUs: 3},
			}},
		{"no stage time", CheckResult{BeforeGITD: "P", AfterGITD: "-", AfterStem: "-", CaseAnalysis: "-"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := b.spanSummary(&tc.res).Spans
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("spans %+v, want %+v", got, tc.want)
			}
		})
	}
}
