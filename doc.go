// Package repro reproduces "Propagation of Last-Transition-Time
// Constraints in Gate-Level Timing Analysis" (Kassab, Cerny, Aourid,
// Krodel — DATE 1998): floating-mode gate-level delay verification by
// waveform narrowing, strengthened with global timing implications
// (static/dynamic timing dominators, static learning) and a FAN-derived
// case analysis that finds violating test vectors or proves none exist.
//
// The implementation lives under internal/:
//
//	internal/waveform    abstract waveforms and signals (§3.1)
//	internal/circuit     gate-level netlists, .bench I/O, NOR mapping
//	internal/delay       topological delays and the STA baseline
//	internal/sim         floating-mode per-vector simulation (witness replay)
//	internal/oracle      ground truth that only tests import
//	internal/constraint  gate constraints, scheduler, fixpoint (§3.2–3.3)
//	internal/dom         static/dynamic timing dominators (§4)
//	internal/learn       static learning implications (§4)
//	internal/scoap       SCOAP controllability (§5 guidance)
//	internal/core        verify/evaluate, stem correlation, case analysis (§5)
//	internal/gen         workload generators incl. the ISCAS substitute suite
//	internal/harness     Table-1/figure regeneration used by cmd/ and benches
//
// The benchmarks in this package regenerate every table and figure of
// the paper's evaluation; see EXPERIMENTS.md for paper-vs-measured.
package repro
