// Package harness regenerates the paper's evaluation artefacts: the
// Table-1 rows over the substitute suite, the Example-2/Figure-1 trace,
// the carry-skip adder experiment of Section 6, and the c1908 dominator
// anecdote. cmd/table1 and cmd/figures render its output; the root
// benchmarks time its stages.
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// Table1Row is one line of the reproduced Table 1.
type Table1Row struct {
	Circuit    string
	Gates      int
	Top        waveform.Time
	Delta      waveform.Time
	Exact      bool // δ is the exact floating delay (paper's E marker)
	Upper      bool // δ is only an upper bound (paper's U marker)
	BeforeGITD core.Result
	AfterGITD  core.Result
	AfterStem  core.Result
	Backtracks int
	CAResult   core.Result
	CPU        time.Duration
}

// Table1 regenerates the two Table-1 rows (δ = exact+1 and δ = exact)
// for every circuit of the substitute suite. Budget bounds the
// case-analysis backtracks per check.
func Table1(entries []gen.SuiteEntry, budget int) []Table1Row {
	var rows []Table1Row
	for _, e := range entries {
		rows = append(rows, CircuitRows(e.Name, e.Circuit, budget)...)
	}
	return rows
}

// RowConfig is the engine configuration behind one circuit's rows:
// the request template shared by every check, and the verifier
// options. RowOptions mutate it before the verifier is built.
type RowConfig struct {
	Req  core.Request
	Opts core.Options
}

// RowOption customises the engine configuration used by
// CircuitRowsParallel (tracing, pprof labels, cone slicing, …).
type RowOption func(*RowConfig)

// WithTracer attaches a tracer to every check behind the rows;
// repeated uses chain (every tracer sees every event).
func WithTracer(t core.Tracer) RowOption {
	return func(c *RowConfig) { c.Req.Tracer = core.MultiTracer(c.Req.Tracer, t) }
}

// WithPprofLabels tags parallel per-output checks with pprof labels.
func WithPprofLabels() RowOption {
	return func(c *RowConfig) { c.Req.PprofLabels = true }
}

// WithoutConeSlicing solves every check on the whole circuit instead
// of the sink's fan-in cone (the -no-cone escape hatch).
func WithoutConeSlicing() RowOption {
	return func(c *RowConfig) { c.Opts.UseConeSlicing = false }
}

// CircuitRows computes the exact circuit floating delay and produces
// the (δ+1, δ) row pair for one circuit, mirroring the paper's
// protocol: the δ+1 check shows which stage refutes, the δ check shows
// the case analysis finding a test vector.
func CircuitRows(name string, c *circuit.Circuit, budget int) []Table1Row {
	return CircuitRowsParallel(name, c, budget, 1)
}

// CircuitRowsParallel is CircuitRows with the per-output checks of the
// two row evaluations fanned out over the given worker count; extras
// adjust the engine configuration (tracing, pprof labels, cone
// slicing).
func CircuitRowsParallel(name string, c *circuit.Circuit, budget, workers int, extras ...RowOption) []Table1Row {
	cfg := RowConfig{Opts: core.Default(), Req: core.Request{Workers: workers}}
	cfg.Opts.MaxBacktracks = budget
	if workers <= 1 {
		cfg.Req.Workers = 1
	}
	for _, o := range extras {
		o(&cfg)
	}
	v := core.NewVerifier(c, cfg.Opts)
	req := cfg.Req
	res, err := v.CircuitFloatingDelayCtx(context.Background(), req)
	if err != nil {
		panic("harness: " + err.Error())
	}
	return RowPair(name, v, res, func(d waveform.Time) *core.CircuitReport {
		r := req
		r.Delta = d
		return v.RunAll(context.Background(), r)
	})
}

// RowPair is the paper's Table-1 row protocol at the circuit floating
// delay D the search found: the whole-circuit check at δ = D+1 (which
// stage refutes) and then at δ = D (case analysis finds a test
// vector), each row timed by the wall clock of its sweep. The δ = D
// row is exact (E) only when the search certified D and the two sweeps
// agree — a violation at D, none at D+1 — and an upper bound (U)
// otherwise. sweep runs one whole-circuit check; the in-process
// harness passes core.RunAll, and lttad runs the same
// core.(*Verifier).FirstWitness on its worker pool.
func RowPair(name string, v *core.Verifier, d *core.DelayResult, sweep func(waveform.Time) *core.CircuitReport) []Table1Row {
	row := func(delta waveform.Time) (Table1Row, *core.CircuitReport) {
		start := time.Now()
		cr := sweep(delta)
		return Table1Row{
			Circuit: name, Gates: v.Circuit().NumGates(), Top: v.Topological(), Delta: delta,
			BeforeGITD: cr.BeforeGITD, AfterGITD: cr.AfterGITD, AfterStem: cr.AfterStem,
			Backtracks: cr.Backtracks, CAResult: cr.CaseAnalysis, CPU: time.Since(start),
		}, cr
	}
	high, crHigh := row(d.Delay.Add(1))
	low, crLow := row(d.Delay)
	low.Exact = d.Exact && crLow.Final == core.ViolationFound && crHigh.Final == core.NoViolation
	low.Upper = !low.Exact
	return []Table1Row{high, low}
}

// Wire is the row as lttad serves it and WriteJSON writes it.
func (r Table1Row) Wire() api.Row {
	return api.Row{
		Circuit: r.Circuit, Gates: r.Gates, Top: int64(r.Top), Delta: int64(r.Delta),
		Exact: r.Exact, Upper: r.Upper,
		BeforeGITD: r.BeforeGITD.String(), AfterGITD: r.AfterGITD.String(),
		AfterStem: r.AfterStem.String(), Backtracks: r.Backtracks,
		CAResult: r.CAResult.String(), CPUSeconds: r.CPU.Seconds(),
	}
}

// WriteJSON emits the rows as a JSON array for downstream tooling.
func WriteJSON(w io.Writer, rows []Table1Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	out := make([]api.Row, len(rows))
	for i, r := range rows {
		out[i] = r.Wire()
	}
	return enc.Encode(out)
}

// RenderTable1 prints the rows in the paper's column layout.
func RenderTable1(w io.Writer, rows []Table1Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CIRCUIT\tGATES\tMAX.TOP.\tδ\tBEFORE G.I.T.D.\tAFTER G.I.T.D.\tAFTER STEM C.\tC.A. #BTRCK\tC.A. RESULT\tCPU(s)")
	for _, r := range rows {
		mark := ""
		if r.Exact {
			mark = " E"
		} else if r.Upper {
			mark = " U"
		}
		bt := "-"
		if r.Backtracks >= 0 && r.CAResult != core.StageSkipped {
			bt = fmt.Sprintf("%d", r.Backtracks)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s%s\t%s\t%s\t%s\t%s\t%s\t%.3f\n",
			r.Circuit, r.Gates, r.Top, r.Delta, mark,
			r.BeforeGITD, r.AfterGITD, r.AfterStem, bt, r.CAResult,
			r.CPU.Seconds())
	}
	tw.Flush()
}

// Example2Trace reproduces the Figure-1/Example-2 narrative: the
// verdict at δ=61 (refuted by plain narrowing), the surviving domains
// at δ=60, and the certified test vector.
type Example2Trace struct {
	Top, Floating  waveform.Time
	RefutedAt61    bool
	Witness        sim.Vector
	WitnessSettle  waveform.Time
	DomainsAt60    map[string]string
	BacktracksAt60 int
}

// Example2 runs the trace on the Hrapcenko circuit with d = 10.
func Example2() *Example2Trace {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	tr := &Example2Trace{DomainsAt60: map[string]string{}}

	plain := core.NewVerifier(c, core.Options{})
	tr.RefutedAt61 = plain.Run(context.Background(), core.Request{Sink: s, Delta: 61}).Final == core.NoViolation

	v := core.NewVerifier(c, core.Default())
	tr.Top = v.Topological()
	res, err := v.ExactFloatingDelayCtx(context.Background(), s, core.Request{})
	if err != nil {
		panic("harness: " + err.Error())
	}
	tr.Floating = res.Delay
	rep := v.Run(context.Background(), core.Request{Sink: s, Delta: 60})
	tr.Witness = rep.Witness
	tr.WitnessSettle = rep.WitnessSettle
	tr.BacktracksAt60 = rep.Backtracks

	// Show the narrowed domains at δ=60 after the global fixpoint (the
	// analogue of the paper's step-by-step listing).
	sys := newNarrowedSystem(c, s, 60)
	for _, name := range []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "s", "e3", "e4", "e5", "e7"} {
		id, _ := c.NetByName(name)
		tr.DomainsAt60[name] = sys(id)
	}
	return tr
}

// Example2Propagation replays the paper's step-by-step narrowing
// listing: every domain change of the plain fixpoint for the timing
// check (s, 61) on the Figure-1 circuit, in propagation order ("g1 ⇒
// D_n1 = …" in the paper's notation, rendered as "net: old → new").
func Example2Propagation() []string {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	sys := constraint.New(c)
	var steps []string
	sys.SetTraceFunc(func(n circuit.NetID, old, new waveform.Signal) {
		steps = append(steps, fmt.Sprintf("%-3s %s → %s", c.Net(n).Name, old, new))
	})
	sys.Narrow(s, waveform.CheckOutput(61))
	sys.ScheduleAll()
	sys.Fixpoint()
	return steps
}

// newNarrowedSystem runs the plain fixpoint for (sink, δ) and returns a
// domain printer.
func newNarrowedSystem(c *circuit.Circuit, s circuit.NetID, d waveform.Time) func(circuit.NetID) string {
	v := core.NewVerifier(c, core.Options{})
	doms := v.DomainsAfterFixpoint(s, d)
	return func(n circuit.NetID) string { return doms[n].String() }
}

// CarrySkipExperiment is the Section-6 adder result: topological vs
// exact floating delay of an n-bit carry-skip adder, with backtrack
// counts for δ = floating+1 (refutation) and δ = floating (witness).
type CarrySkipExperiment struct {
	Bits, Block          int
	Gates                int
	Top, Floating        waveform.Time
	Exact                bool
	RefuteBacktracks     int
	WitnessBacktracks    int
	RefuteStage          string // which stage proved δ+1 impossible
	DominatorChainLength int
	Witness              sim.Vector
	CPU                  time.Duration
}

// CarrySkip runs the adder experiment for the given size.
func CarrySkip(bits, block int, budget int) *CarrySkipExperiment {
	start := time.Now()
	c := gen.CarrySkipAdder(bits, block, 10)
	cout, _ := c.NetByName("cout")
	opts := core.Default()
	opts.MaxBacktracks = budget
	v := core.NewVerifier(c, opts)
	ex := &CarrySkipExperiment{Bits: bits, Block: block, Gates: c.NumGates(), Top: v.Topological()}

	res, err := v.ExactFloatingDelayCtx(context.Background(), cout, core.Request{})
	if err != nil {
		panic("harness: " + err.Error())
	}
	ex.Floating = res.Delay
	ex.Exact = res.Exact
	ex.Witness = res.Witness

	repHigh := v.Run(context.Background(), core.Request{Sink: cout, Delta: res.Delay.Add(1)})
	ex.RefuteBacktracks = repHigh.Backtracks
	switch {
	case repHigh.BeforeGITD == core.NoViolation:
		ex.RefuteStage = "plain narrowing"
	case repHigh.AfterGITD == core.NoViolation:
		ex.RefuteStage = "timing dominators"
	case repHigh.AfterStem == core.NoViolation:
		ex.RefuteStage = "stem correlation"
	default:
		ex.RefuteStage = "case analysis"
	}
	ex.DominatorChainLength = repHigh.Dominators

	repLow := v.Run(context.Background(), core.Request{Sink: cout, Delta: res.Delay})
	ex.WitnessBacktracks = repLow.Backtracks
	ex.CPU = time.Since(start)
	return ex
}

// DominatorAnecdote reproduces the c1908 observation of Section 6: on a
// deep output, dominator implications prove a delay bound far below the
// topological delay, quickly and without case analysis.
type DominatorAnecdote struct {
	Output             string
	Top                waveform.Time
	ProvedBound        waveform.Time // smallest δ with a dominator-stage refutation
	Dominators         int
	PlainVerdict       core.Result // what plain narrowing says at ProvedBound
	WithDomVerdict     core.Result
	CPU                time.Duration
	DominatorNetsNamed []string
}

// Anecdote runs the dominator anecdote on the c1908 substitute's
// deepest output.
func Anecdote() *DominatorAnecdote {
	start := time.Now()
	var entry gen.SuiteEntry
	for _, e := range gen.SubstituteSuite() {
		if e.Name == "c1908" {
			entry = e
			break
		}
	}
	c := entry.Circuit
	a := delay.New(c)
	// Deepest output.
	deep := c.PrimaryOutputs()[0]
	for _, po := range c.PrimaryOutputs() {
		if a.Arrival(po) > a.Arrival(deep) {
			deep = po
		}
	}
	an := &DominatorAnecdote{Output: c.Net(deep).Name, Top: a.Arrival(deep)}

	plain := core.NewVerifier(c, core.Options{})
	withDom := core.NewVerifier(c, core.Options{UseDominators: true})

	// Find the smallest δ that the dominator stage refutes but plain
	// narrowing cannot, scanning down from the topological delay.
	lo, hi := waveform.Time(0), an.Top
	for lo < hi {
		mid := waveform.Midpoint(lo, hi)
		if withDom.Run(context.Background(), core.Request{Sink: deep, Delta: mid, VerifyOnly: true}).Final == core.NoViolation {
			hi = mid
		} else {
			lo = mid.Add(1)
		}
	}
	an.ProvedBound = lo
	an.WithDomVerdict = withDom.Run(context.Background(), core.Request{Sink: deep, Delta: lo, VerifyOnly: true}).Final
	an.PlainVerdict = plain.Run(context.Background(), core.Request{Sink: deep, Delta: lo, VerifyOnly: true}).Final

	sys := core.NewVerifier(c, core.Options{}).SystemAfterFixpoint(deep, lo)
	doms := dom.Dynamic(sys, deep, lo)
	an.Dominators = len(doms.Nets)
	for _, n := range doms.Nets {
		an.DominatorNetsNamed = append(an.DominatorNetsNamed, c.Net(n).Name)
	}
	an.CPU = time.Since(start)
	return an
}

// RenderExample2 pretty-prints the trace.
func RenderExample2(w io.Writer, tr *Example2Trace) {
	fmt.Fprintf(w, "Figure 1 / Example 2 (Hrapcenko circuit, d=10 per gate)\n")
	fmt.Fprintf(w, "  topological delay: %s, exact floating delay: %s\n", tr.Top, tr.Floating)
	fmt.Fprintf(w, "  timing check (s, 61): refuted by plain waveform narrowing: %v\n", tr.RefutedAt61)
	fmt.Fprintf(w, "  timing check (s, 60): test vector %s (settle %s), %d backtracks\n",
		tr.Witness, tr.WitnessSettle, tr.BacktracksAt60)
	fmt.Fprintf(w, "  narrowed domains at δ=60 (plain fixpoint):\n")
	for _, n := range []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "s", "e3", "e4", "e5", "e7"} {
		fmt.Fprintf(w, "    %-3s %s\n", n, tr.DomainsAt60[n])
	}
}

// RenderCarrySkip pretty-prints the adder experiment.
func RenderCarrySkip(w io.Writer, ex *CarrySkipExperiment) {
	fmt.Fprintf(w, "Carry-skip adder %d bits (blocks of %d), %d gates\n", ex.Bits, ex.Block, ex.Gates)
	fmt.Fprintf(w, "  topological delay %s, exact floating delay %s (exact=%v)\n", ex.Top, ex.Floating, ex.Exact)
	fmt.Fprintf(w, "  δ=%s refuted by %s after %d backtracks (dominator chain length %d)\n",
		ex.Floating.Add(1), ex.RefuteStage, maxInt(ex.RefuteBacktracks, 0), ex.DominatorChainLength)
	fmt.Fprintf(w, "  δ=%s witnessed after %d backtracks; vector %s\n",
		ex.Floating, maxInt(ex.WitnessBacktracks, 0), ex.Witness)
	fmt.Fprintf(w, "  CPU %.2fs\n", ex.CPU.Seconds())
}

// RenderAnecdote pretty-prints the dominator anecdote.
func RenderAnecdote(w io.Writer, an *DominatorAnecdote) {
	fmt.Fprintf(w, "c1908-substitute dominator anecdote\n")
	fmt.Fprintf(w, "  output %s: topological delay %s\n", an.Output, an.Top)
	fmt.Fprintf(w, "  dominators prove delay < %s (plain narrowing: %s, with dominators: %s)\n",
		an.ProvedBound, an.PlainVerdict, an.WithDomVerdict)
	fmt.Fprintf(w, "  %d dynamic timing dominators: %s\n", an.Dominators,
		strings.Join(truncate(an.DominatorNetsNamed, 8), ", "))
	fmt.Fprintf(w, "  CPU %.2fs\n", an.CPU.Seconds())
}

func truncate(ss []string, n int) []string {
	if len(ss) <= n {
		return ss
	}
	out := append([]string(nil), ss[:n]...)
	return append(out, fmt.Sprintf("… (%d more)", len(ss)-n))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
