package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/delay"
	"repro/internal/dom"
	"repro/internal/learn"
	"repro/internal/scoap"
	"repro/internal/waveform"
)

// Prepared is the immutable per-circuit precompute shared by every
// verifier on a circuit: arrival-time analysis, SCOAP
// controllabilities and the level order of the dominator computation,
// built by Prepare; the static learning table, the reconvergent stems
// and stage 1's base snapshot, built on first use; and the per-sink
// fan-in cone slices used by cone-sliced solving. A sweep over many δ values or option sets
// pays for each analysis once — NewVerifier derives verifiers that all
// point at the same Prepared. All methods are safe for concurrent use:
// the on-demand analyses build once under sync.OnceValue (a build that
// panics panics again on every later use), and the cone cache grows
// under a mutex with per-sink once initialisation, so parallel RunAll
// workers build distinct cones concurrently but never duplicate one.
type Prepared struct {
	c        *circuit.Circuit
	analysis *delay.Analysis
	cc       *scoap.Controllability
	levels   *dom.Levels // dom.NewLevels of c

	learn func() *learn.Table    // built by the first stage-2 check with learning
	stems func() []circuit.NetID // built by the first stem-correlation or case-analysis stage
	base  base                   // built by the first whole-circuit check

	coneMu sync.Mutex
	cones  map[circuit.NetID]*conePrep // guarded by coneMu
}

// The on-demand builds, replaced by tests that count them.
var (
	precomputeLearning = learn.Precompute
	projectLearning    = (*learn.Table).Project
	reconvergentStems  = (*circuit.Circuit).ReconvergentStems
	buildBase          = unconstrainedFixpoint
)

// base is the base snapshot of a circuit or cone slice: its domains at
// the greatest fixpoint of the initial domains with no sink narrowed,
// where every check's stage 1 starts (DESIGN.md §14). Like the learning
// table, its build cannot be interrupted and is charged to no check.
type base struct {
	once sync.Once
	snap []int64 // nil when the fixpoint is inconsistent (or its build panicked): checks solve from ⊤
}

// get returns the base snapshot, building it on first use in *sys,
// the calling check's own system (allocated when nil).
func (b *base) get(c *circuit.Circuit, sys **constraint.System) []int64 {
	b.once.Do(func() {
		if *sys == nil {
			*sys = constraint.New(c)
		}
		b.snap = buildBase(*sys)
	})
	return b.snap
}

// unconstrainedFixpoint snapshots the fixpoint of the initial domains
// with every gate scheduled, or returns nil when it is inconsistent.
func unconstrainedFixpoint(sys *constraint.System) []int64 {
	sys.Reset()
	sys.ScheduleAll()
	if !sys.Fixpoint() {
		return nil
	}
	return sys.Snapshot(nil)
}

// Prepare computes the shareable static analyses a check's first stage
// reads — arrival times, SCOAP controllabilities, the dominator level
// order — and arms the on-demand builds of the rest: the learning
// table (read from stage 2 on) and the reconvergent stems (read by
// stem correlation and case analysis). A check that ends in stage 1
// never pays for either. The first check that needs one builds it
// inside that stage, so the one-time cost shows in its stage time and
// elapsed time; the build cannot be interrupted, and the check's
// deadline is polled after it.
func Prepare(c *circuit.Circuit) *Prepared {
	return &Prepared{
		c:        c,
		analysis: delay.New(c),
		cc:       scoap.Compute(c),
		levels:   dom.NewLevels(c),
		learn:    sync.OnceValue(func() *learn.Table { return precomputeLearning(c) }),
		stems:    sync.OnceValue(func() []circuit.NetID { return reconvergentStems(c) }),
		cones:    make(map[circuit.NetID]*conePrep),
	}
}

// Circuit returns the prepared netlist.
func (p *Prepared) Circuit() *circuit.Circuit { return p.c }

// Analysis returns the arrival-time analysis.
func (p *Prepared) Analysis() *delay.Analysis { return p.analysis }

// LearnTable returns the static learning table, computing it on first
// use (it is the most expensive precompute and only checks that reach
// stage 2 with learning enabled read it).
func (p *Prepared) LearnTable() *learn.Table { return p.learn() }

// NewVerifier derives a verifier with the given options from the
// shared precompute. It builds nothing: the learning table and the
// stems are built by the first check that reads them.
func (p *Prepared) NewVerifier(opts Options) *Verifier {
	return &Verifier{c: p.c, opts: opts, prep: p,
		analysis: p.analysis, cc: p.cc, levels: p.levels,
		learnTable: p.learn, stems: p.stems, base: &p.base}
}

// conePrep is the option-independent slice of one sink's fan-in cone:
// the cone circuit with its id maps plus the static analyses projected
// or recomputed on it. Built once per (circuit, sink) and shared by
// every verifier derived from the Prepared.
type conePrep struct {
	once sync.Once

	// full marks a cone spanning the whole circuit; slicing it would
	// only duplicate the system, so Run solves on the original.
	full bool
	cone *circuit.Circuit
	cm   *circuit.ConeMap

	analysis *delay.Analysis
	cc       *scoap.Controllability
	levels   *dom.Levels // dom.NewLevels of cone

	learnTable func() *learn.Table    // the parent's table projected on first use
	stems      func() []circuit.NetID // the parent's stems restricted on first use
	base       base                   // built by the first check on the cone
}

// coneFor returns the cone precompute for sink, building it on first
// use; nil when the cone spans the whole circuit (or extraction
// failed) and slicing would buy nothing.
func (p *Prepared) coneFor(sink circuit.NetID) *conePrep {
	p.coneMu.Lock()
	cp := p.cones[sink]
	if cp == nil {
		cp = new(conePrep)
		p.cones[sink] = cp
	}
	p.coneMu.Unlock()
	cp.once.Do(func() { cp.build(p, sink) })
	if cp.cone == nil {
		return nil
	}
	return cp
}

func (cp *conePrep) build(p *Prepared, sink circuit.NetID) {
	mask := p.c.TransitiveFanin(sink)
	in := 0
	for _, ok := range mask {
		if ok {
			in++
		}
	}
	if in == p.c.NumNets() {
		cp.full = true
		return
	}
	cone, cm, err := circuit.ExtractConeMapped(p.c, sink)
	if err != nil {
		return // defensive: a nil cone falls back to whole-circuit solving
	}
	cp.cone, cp.cm = cone, cm
	cp.analysis = delay.New(cone)
	cp.levels = dom.NewLevels(cone)
	// Arrival times and SCOAP controllabilities are functions of each
	// net's fan-in alone, which the slice preserves, so the projection
	// is identical to recomputing on the cone.
	cp.cc = p.cc.Project(cm.FromCone)
	// Restrict the original circuit's reconvergent stems to the cone
	// instead of recomputing them on the slice: reconvergence seen by
	// the whole circuit may run through gates outside the cone, and
	// using the same candidate set (in the same id order) keeps stem
	// selection, split budgets, and split order aligned with
	// whole-circuit solving.
	cp.stems = sync.OnceValue(func() []circuit.NetID {
		var stems []circuit.NetID
		for _, s := range p.stems() {
			if id := cm.ToCone[s]; id != circuit.InvalidNet {
				stems = append(stems, id)
			}
		}
		return stems
	})
	cp.learnTable = sync.OnceValue(func() *learn.Table {
		return projectLearning(p.LearnTable(), cone, cm.ToCone, cm.FromCone)
	})
}

// coneVerifier pairs the sub-verifier solving on one sink's cone slice
// with the id maps needed to translate its reports back. Cached per
// sink on the (options-carrying) Verifier; the underlying cone
// geometry and analyses come from the shared Prepared.
type coneVerifier struct {
	once sync.Once
	sub  *Verifier
}

// coneFor returns the cached cone sub-verifier for sink, or nil when
// the sink's cone spans the whole circuit and Run should solve on the
// original system.
func (v *Verifier) coneFor(sink circuit.NetID) *coneVerifier {
	v.coneMu.Lock()
	if v.cones == nil {
		v.cones = make(map[circuit.NetID]*coneVerifier)
	}
	cv := v.cones[sink]
	if cv == nil {
		cv = new(coneVerifier)
		v.cones[sink] = cv
	}
	v.coneMu.Unlock()
	cv.once.Do(func() { cv.init(v, sink) })
	if cv.sub == nil {
		return nil
	}
	return cv
}

func (cv *coneVerifier) init(v *Verifier, sink circuit.NetID) {
	cp := v.prep.coneFor(sink)
	if cp == nil {
		return
	}
	subOpts := v.opts
	subOpts.UseConeSlicing = false
	sub := &Verifier{c: cp.cone, opts: subOpts,
		analysis: cp.analysis, cc: cp.cc, levels: cp.levels,
		learnTable: cp.learnTable, stems: cp.stems, base: &cp.base,
		cm: cp.cm, parentPIs: len(v.c.PrimaryInputs())}
	cv.sub = sub
}

// runCone executes the check on the sink's fan-in cone slice and
// translates the report back to original-circuit ids: the sink and the
// dominator nets (mapped in place: run already copied the set out of
// the workspace into storage the report owns). The witness arrives
// expanded to the original primary inputs (see keepWitness). The
// caller's tracer sees original ids
// throughout: CheckStart/CheckDone fire here against the original
// sink, and a translating wrapper renames the nets of inner events.
func (v *Verifier) runCone(ctx context.Context, req Request, cv *coneVerifier) *Report {
	outer := req.Tracer
	sub := req
	sub.Sink = cv.sub.cm.Sink
	if outer != nil {
		outer.CheckStart(req.Sink, req.Delta)
		sub.Tracer = &coneTracer{inner: outer, fromCone: cv.sub.cm.FromCone}
	}
	rep := cv.sub.run(ctx, sub)
	rep.Sink = req.Sink
	for i, n := range rep.DominatorSet.Nets {
		rep.DominatorSet.Nets[i] = cv.sub.cm.FromCone[n]
	}
	if outer != nil {
		outer.CheckDone(rep)
	}
	return rep
}

// coneTracer translates the net ids of trace events fired by a cone
// sub-verifier back into original-circuit ids, and suppresses the
// inner CheckStart/CheckDone (runCone fires them against the original
// sink, with the translated report).
type coneTracer struct {
	inner    Tracer
	fromCone []circuit.NetID
}

func (t *coneTracer) CheckStart(circuit.NetID, waveform.Time) {}
func (t *coneTracer) CheckDone(*Report)                       {}

func (t *coneTracer) StageEnter(st Stage) { t.inner.StageEnter(st) }
func (t *coneTracer) StageExit(st Stage, res Result, d time.Duration) {
	t.inner.StageExit(st, res, d)
}
func (t *coneTracer) Decision(depth int, n circuit.NetID, val int) {
	t.inner.Decision(depth, t.fromCone[n], val)
}
func (t *coneTracer) Backtrack(total int) { t.inner.Backtrack(total) }
func (t *coneTracer) StemSplit(split int, stem circuit.NetID) {
	t.inner.StemSplit(split, t.fromCone[stem])
}
func (t *coneTracer) DominatorRound(round, doms int, narrowed bool) {
	t.inner.DominatorRound(round, doms, narrowed)
}
