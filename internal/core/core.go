// Package core assembles the paper's timing-verification engine: the
// verify/evaluate loop of Figure 4 (waveform-narrowing fixpoint plus
// dynamic-timing-dominator implications), static-learning application,
// stem correlation, the FAN-derived case analysis of Section 5, and
// exact floating-mode delay computation on top of the timing check.
package core

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/delay"
	"repro/internal/dom"
	"repro/internal/learn"
	"repro/internal/scoap"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// Result is the verdict of a timing check or one of its stages.
type Result int

const (
	// PossibleViolation: the constraint system is still consistent; a
	// violation has not been ruled out (the paper's "P").
	PossibleViolation Result = iota
	// NoViolation: proven — the output cannot transition at or after δ
	// (the paper's "N").
	NoViolation
	// ViolationFound: case analysis produced a test vector witnessing
	// the violation (the paper's "V").
	ViolationFound
	// Abandoned: case analysis exceeded the backtrack budget (the
	// paper's "A").
	Abandoned
	// StageSkipped: the stage was not needed (the paper's "-").
	StageSkipped
	// Cancelled: the check was interrupted by a context cancellation or
	// deadline before any stage could decide it. Unlike Abandoned (a
	// budget ran out — the engine gave up on an open question),
	// Cancelled says the caller withdrew the question; re-running with
	// more time may still decide it either way.
	Cancelled
)

// String renders the paper's single-letter codes.
func (r Result) String() string {
	switch r {
	case PossibleViolation:
		return "P"
	case NoViolation:
		return "N"
	case ViolationFound:
		return "V"
	case Abandoned:
		return "A"
	case StageSkipped:
		return "-"
	case Cancelled:
		return "C"
	}
	return "?"
}

// ParseResult is the inverse of Result.String: it decodes the paper's
// single-letter verdict codes as served on the wire (CheckResult stage
// fields). A coordinator merging sharded results uses it to rebuild
// reports for circuit-level aggregation.
func ParseResult(s string) (Result, bool) {
	switch s {
	case "P":
		return PossibleViolation, true
	case "N":
		return NoViolation, true
	case "V":
		return ViolationFound, true
	case "A":
		return Abandoned, true
	case "-":
		return StageSkipped, true
	case "C":
		return Cancelled, true
	}
	return PossibleViolation, false
}

// Options configure the verifier stages.
type Options struct {
	// UseDominators enables the dynamic-timing-dominator implications
	// (Section 4). On by default in Default().
	UseDominators bool
	// UseStaticDominators additionally applies the Lemma-3 narrowing
	// once per check from the static timing dominators (purely
	// structural, cheaper but weaker than the dynamic ones; useful for
	// the ablation study — Default() leaves it off because the dynamic
	// dominators subsume it after the first fixpoint).
	UseStaticDominators bool
	// UseLearning enables static-learning implications (Section 4).
	UseLearning bool
	// UseStemCorrelation enables the reconvergent-stem correlation
	// preprocessing of Section 5.
	UseStemCorrelation bool
	// UseConeSlicing solves each check on the sink's transitive fan-in
	// cone instead of the whole circuit. The cone contains every net
	// the check can constrain — a gate whose output lies in the cone
	// has all of its inputs in the cone, so no information can flow
	// back in from the unconstrained region outside it — which makes
	// the sliced check verdict-equivalent while the per-check system
	// shrinks to the sink's own logic on wide multi-output circuits.
	// Witnesses, traces, and dominator sets are translated back to
	// original-circuit ids. On by default in Default(); the front ends
	// expose -no-cone as the escape hatch.
	UseConeSlicing bool
	// UseWarmStart is accepted and ignored: every check starts stage 1
	// from its cone's base snapshot (DESIGN.md §14), which replaced the
	// per-sink warm-start seed this option used to turn on.
	UseWarmStart bool
	// MaxBacktracks bounds the case analysis; beyond it the check is
	// Abandoned.
	MaxBacktracks int
	// MaxStemSplits caps the number of stems correlated per check
	// (carrier stems first, then side-condition stems, deepest first).
	// 0 means unlimited.
	MaxStemSplits int
}

// Default returns the full configuration used for the paper's results.
func Default() Options {
	return Options{
		UseDominators:      true,
		UseLearning:        true,
		UseStemCorrelation: true,
		UseConeSlicing:     true,
		MaxBacktracks:      200000,
		MaxStemSplits:      64,
	}
}

// Verifier holds per-circuit preprocessing shared across checks. All
// of its static state comes from a Prepared, so several verifiers
// (different option sets, cone sub-verifiers) share one precompute.
type Verifier struct {
	c    *circuit.Circuit
	opts Options

	prep     *Prepared // shared precompute; nil on cone sub-verifiers
	analysis *delay.Analysis
	cc       *scoap.Controllability
	levels   *dom.Levels // dom.NewLevels of c, shared via Prepared

	// The on-demand analyses of the shared precompute, each built by
	// the first check on the circuit (or cone) that reads it.
	learnTable func() *learn.Table    // read by evaluate when UseLearning
	stems      func() []circuit.NetID // reconvergent fanout stems
	base       *base                  // the stage-1 seed of c, shared via Prepared

	// On a cone sub-verifier, the map back to the parent circuit and its
	// primary-input count, for witness expansion.
	cm        *circuit.ConeMap
	parentPIs int

	coneMu sync.Mutex
	cones  map[circuit.NetID]*coneVerifier // guarded by coneMu
}

// NewVerifier prepares a verifier for the circuit (computing arrival
// times and SCOAP controllabilities; the static learning table and the
// reconvergent stems are built by the first check that reads them). It
// is Prepare(c).NewVerifier(opts); call Prepare directly to share the
// precompute across several option sets.
func NewVerifier(c *circuit.Circuit, opts Options) *Verifier {
	return Prepare(c).NewVerifier(opts)
}

// Circuit returns the verifier's netlist.
func (v *Verifier) Circuit() *circuit.Circuit { return v.c }

// Topological returns the circuit's topological delay.
func (v *Verifier) Topological() waveform.Time { return v.analysis.Topological() }

// Report describes one timing check's outcome stage by stage, matching
// the columns of Table 1.
type Report struct {
	Sink  circuit.NetID
	Delta waveform.Time

	// BeforeGITD is the verdict of the plain constraint evaluation
	// (column "BEFORE G.I.T.D.").
	BeforeGITD Result
	// AfterGITD is the verdict after global implications on timing
	// dominators and learning (column "AFTER G.I.T.D.").
	AfterGITD Result
	// AfterStem is the verdict after stem correlation (column "AFTER
	// STEM C.").
	AfterStem Result
	// Backtracks is the case-analysis backtrack count (column "C.A.
	// #BTRCK").
	Backtracks int
	// CaseAnalysis is the case-analysis verdict (column "C.A. RESULT").
	CaseAnalysis Result
	// Final is the overall verdict of the check.
	Final Result

	// Witness is the violating input vector when Final ==
	// ViolationFound, with its simulated settle time.
	Witness       sim.Vector
	WitnessSettle waveform.Time

	// Dominators is the number of dynamic timing dominators seen on the
	// first dominator round (the c1908 anecdote statistic).
	Dominators int
	// DominatorSet lists those first-round dominators (source-first,
	// with their distance bounds), always in original-circuit ids —
	// cone-sliced checks translate them back before reporting.
	DominatorSet dom.Dominators
	// DominatorRounds counts evaluate-loop iterations that applied
	// dominator narrowing.
	DominatorRounds int
	// Propagations counts gate-constraint applications.
	Propagations int64
	// Started is the wall-clock instant the check began; Elapsed is its
	// wall-clock time. Together they place the check on a wall-clock
	// timeline (the lttad cluster trace) without re-measuring.
	Started time.Time
	Elapsed time.Duration

	// Stats carries the engine-level telemetry of the check (always
	// filled; see Stats).
	Stats Stats
}

// evaluate is the evaluate() loop of Figure 4 extended with learning:
// reach the fixpoint; on consistency apply learned implications and
// dominator narrowing; repeat until nothing changes. An interrupted
// solve returns Cancelled or Abandoned per the run state. Learning and
// the carrier/dominator round are incremental: each revisits only the
// nets whose domains changed since it last ran (DESIGN.md §14).
func (v *Verifier) evaluate(rs *runState, sys *constraint.System, sink circuit.NetID, delta waveform.Time, rep *Report) Result {
	round := 0
	for {
		if !sys.Fixpoint() {
			return NoViolation
		}
		if sys.Stopped() {
			return rs.stopVerdict()
		}
		changed := false
		ws := rs.workspace()
		if v.opts.UseLearning {
			if v.learnTable().Apply(sys, &ws.learn) {
				changed = true
			}
		}
		if v.opts.UseDominators {
			ws.dom.Carriers(sys, v.levels, sink, delta)
			doms := ws.dom.Dominators(v.levels)
			if rep.Dominators == 0 {
				rep.Dominators = len(doms.Nets)
				rep.DominatorSet = rs.keepDominators(doms)
			}
			narrowed := dom.NarrowDominators(sys, doms, delta)
			if narrowed {
				changed = true
				rep.DominatorRounds++
			}
			if rs.tracer != nil {
				round++
				rs.tracer.DominatorRound(round, len(doms.Nets), narrowed)
			}
		}
		if !changed {
			return PossibleViolation
		}
	}
}

// stemCorrelation performs the Section-5 preprocessing: for every
// reconvergent fanout stem relevant to the check, evaluate both class
// restrictions of the stem and replace every domain by the union of
// the two branch results. A stem whose branches are both inconsistent
// refutes the check.
//
// Fidelity note: the paper correlates stems "that are dynamic
// carriers". We widen the selection to stems whose transitive fanout
// reaches a dynamic carrier — side-condition stems whose value gates
// the carrier paths without ever carrying the late transition
// themselves (the e3-style conflicts of Figure 1, distributed over
// reconvergent branches, are only refutable this way). The widening is
// sound (each branch evaluation is) and only costs extra splits. The
// system is consistent whenever the stage reaches a stem, so the
// checked output is itself a carrier, and every carrier lies in its
// fan-in cone: the stems whose transitive fanout reaches a carrier are
// exactly the stems of the output's fan-in cone, for the whole stage.
func (v *Verifier) stemCorrelation(rs *runState, sys *constraint.System, sink circuit.NetID, delta waveform.Time, rep *Report) Result {
	// The first stage on the circuit (or cone) that reads the stems
	// builds them; the build cannot be interrupted, so the deadline is
	// polled after it.
	allStems := v.stems()
	if rs.stoppedNow() {
		return rs.stopVerdict()
	}
	if len(allStems) == 0 {
		return PossibleViolation
	}
	ws := rs.workspace()
	carrier, _ := ws.dom.Carriers(sys, v.levels, sink, delta)
	fanin := ws.faninMask(v.c, v.levels, sink)
	// Order: carrier stems first (the paper's criterion), then
	// side-condition stems; deepest first within each group. A budget
	// caps the splits so wide circuits stay tractable.
	stems := append(ws.stemOrder[:0], allStems...)
	ws.stemOrder = stems
	slices.SortFunc(stems, func(a, b circuit.NetID) int {
		if ca, cb := carrier[a], carrier[b]; ca != cb {
			if ca {
				return -1
			}
			return 1
		}
		if la, lb := v.c.Level(a), v.c.Level(b); la != lb {
			return cmp.Compare(lb, la)
		}
		return cmp.Compare(a, b)
	})
	splits := 0
	for _, stem := range stems {
		if !fanin[stem] {
			continue
		}
		if rs.maxSplits > 0 && splits >= rs.maxSplits {
			break
		}
		d := sys.Domain(stem)
		if _, known := d.KnownValue(); known {
			continue
		}
		splits++
		rep.Stats.StemSplits = splits
		if rs.tracer != nil {
			rs.tracer.StemSplit(splits, stem)
		}
		// Branch 0.
		sys.Mark()
		sys.Narrow(stem, waveform.SettledTo(0))
		ok0 := v.evaluate(rs, sys, sink, delta, rep) == PossibleViolation
		if sys.Stopped() {
			sys.Undo()
			return rs.stopVerdict()
		}
		if ok0 {
			ws.keepBranch(sys)
		}
		sys.Undo()
		// Branch 1.
		sys.Mark()
		sys.Narrow(stem, waveform.SettledTo(1))
		ok1 := v.evaluate(rs, sys, sink, delta, rep) == PossibleViolation
		if sys.Stopped() {
			sys.Undo()
			return rs.stopVerdict()
		}
		switch {
		case !ok0 && !ok1:
			sys.Undo()
			// Both branches refuted: the check is impossible.
			sys.Narrow(sink, waveform.EmptySignal)
			return NoViolation
		case ok0 && !ok1:
			// Branch 0's trail and domains, kept above.
		case !ok0 && ok1:
			ws.keepBranch(sys)
		default:
			ws.unionBranch(sys)
		}
		sys.Undo()
		ws.writeBack(sys)
		switch res := v.evaluate(rs, sys, sink, delta, rep); res {
		case NoViolation, Cancelled, Abandoned:
			return res
		}
	}
	return PossibleViolation
}

// keepBranch records the open branch's trailed nets, once each, with
// their current domains.
func (ws *workspace) keepBranch(sys *constraint.System) {
	ws.trailed = sys.AppendTouched(ws.trailed[:0])
	ws.newEpoch(sys.Circuit().NumNets())
	ws.branch = ws.branch[:0]
	for _, n := range ws.trailed {
		if ws.seen[n] != ws.epoch {
			ws.seen[n] = ws.epoch
			ws.branch = append(ws.branch, branchNet{n, sys.Domain(n)})
		}
	}
}

// unionBranch keeps, of the branch recorded by keepBranch, the nets the
// open branch trailed too, each with the union of its two branch
// domains.
func (ws *workspace) unionBranch(sys *constraint.System) {
	ws.trailed = sys.AppendTouched(ws.trailed[:0])
	ws.newEpoch(sys.Circuit().NumNets())
	for _, n := range ws.trailed {
		ws.seen[n] = ws.epoch
	}
	k := 0
	for _, b := range ws.branch {
		if ws.seen[b.net] == ws.epoch {
			ws.branch[k] = branchNet{b.net, b.sig.Union(sys.Domain(b.net))}
			k++
		}
	}
	ws.branch = ws.branch[:k]
}

// writeBack narrows the pre-split domains to the surviving ones. A
// branch narrows only the nets on its trail; every other net keeps its
// pre-split domain, which the union with the other branch contains, so
// only recorded nets can narrow: those of the one consistent branch,
// or those on both trails for the union. Each narrowing changes its own
// net alone, so the ones that take effect are known before any is
// made; only those are sorted, and they are made in increasing id
// order, as a scan of every net would meet them.
func (ws *workspace) writeBack(sys *constraint.System) {
	k := 0
	for _, b := range ws.branch {
		if sys.Narrows(b.net, b.sig) {
			ws.branch[k] = b
			k++
		}
	}
	narrow := ws.branch[:k]
	slices.SortFunc(narrow, func(a, b branchNet) int { return cmp.Compare(a.net, b.net) })
	for _, b := range narrow {
		sys.Narrow(b.net, b.sig)
	}
}

// faninMask marks the nets of sink's transitive fan-in (sink
// included) into the workspace's fanin buffer.
func (ws *workspace) faninMask(c *circuit.Circuit, lv *dom.Levels, sink circuit.NetID) []bool {
	in := slices.Grow(ws.fanin[:0], c.NumNets())[:c.NumNets()]
	ws.fanin = in
	clear(in)
	in[sink] = true
	// Level order reaches every net after the nets its fanout drives.
	for _, x := range lv.Order {
		if in[x] {
			for _, y := range lv.Inputs(x) {
				in[y] = true
			}
		}
	}
	return in
}
