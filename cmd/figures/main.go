// Command figures regenerates the paper's figure-level experiments:
// the Figure-1/Example-2 trace, the Figures-2/3 carry-skip dominator
// narrative, the Section-6 16-bit carry-skip adder result, and the
// c1908 dominator anecdote.
//
// Usage:
//
//	figures [-fig1] [-fig23] [-csa16] [-c1908]
//
// With no flags, everything runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/harness"
)

func main() {
	fig1 := flag.Bool("fig1", false, "Figure 1 / Example 2 trace")
	fig23 := flag.Bool("fig23", false, "Figures 2–3 carry-skip dominator narrative")
	csa16 := flag.Bool("csa16", false, "Section-6 16-bit carry-skip adder experiment")
	c1908 := flag.Bool("c1908", false, "Section-6 c1908 dominator anecdote")
	budget := flag.Int("budget", 200000, "case-analysis backtrack budget")
	flag.Parse()
	all := !*fig1 && !*fig23 && !*csa16 && !*c1908

	if all || *fig1 {
		harness.RenderExample2(os.Stdout, harness.Example2())
		fmt.Println()
		fmt.Println("  propagation trace at δ=61 (every narrowing, in order — the")
		fmt.Println("  paper's Example-2 listing; ends with the contradiction on e3/s):")
		for _, step := range harness.Example2Propagation() {
			fmt.Printf("    %s\n", step)
		}
		fmt.Println()
	}
	if all || *fig23 {
		renderFig23()
		fmt.Println()
	}
	if all || *csa16 {
		harness.RenderCarrySkip(os.Stdout, harness.CarrySkip(16, 4, *budget))
		fmt.Println()
	}
	if all || *c1908 {
		harness.RenderAnecdote(os.Stdout, harness.Anecdote())
	}
}

// renderFig23 reproduces the Figures-2/3 narrative on a carry-skip
// adder: the timing check on the carry output propagates its
// last-transition interval to the reconvergence net X, local narrowing
// stalls at the ambiguous NAND, and the dynamic timing dominators
// (the block-boundary carries) recover the global implication.
func renderFig23() {
	c := gen.CarrySkipAdder(8, 4, 10)
	cout, _ := c.NetByName("cout")
	full := core.NewVerifier(c, core.Default())
	res, err := full.ExactFloatingDelayCtx(context.Background(), cout, core.Request{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return
	}
	delta := res.Lower // the exact floating delay: plain narrowing stays consistent here
	fmt.Printf("Figures 2–3 — carry-skip adder (8 bits, blocks of 4), top %s, floating %s\n",
		full.Topological(), res.Delay)
	fmt.Printf("  timing check (cout, %s):\n", delta)

	v := core.NewVerifier(c, core.Options{})
	sys := v.SystemAfterFixpoint(cout, delta)
	fmt.Printf("  after the plain fixpoint the system is consistent: %v\n", !sys.Inconsistent())
	doms := dom.Dynamic(sys, cout, delta)
	fmt.Printf("  dynamic timing dominators (output towards inputs — the block\n")
	fmt.Printf("  boundary carries cK play the role of C5/C6 in Figure 2):\n")
	for i, n := range doms.Nets {
		fmt.Printf("    %-10s dynamic distance %s  (narrow to transitions ≥ %s)\n",
			c.Net(n).Name, doms.Dist[i], delta.Sub(doms.Dist[i]))
	}
	changed := dom.NarrowDominators(sys, doms, delta)
	still := sys.Fixpoint()
	fmt.Printf("  Corollary-1 narrowing changed domains: %v; system consistent afterwards: %v\n", changed, still)

	repHigh := full.Run(context.Background(), core.Request{Sink: cout, Delta: delta.Add(1)})
	fmt.Printf("  δ=%s: plain %s, after dominators %s, after stems %s, case analysis %s (%d backtracks)\n",
		delta.Add(1), repHigh.BeforeGITD, repHigh.AfterGITD, repHigh.AfterStem, repHigh.CaseAnalysis, maxI(repHigh.Backtracks, 0))
	rep := full.Run(context.Background(), core.Request{Sink: cout, Delta: delta})
	fmt.Printf("  δ=%s: verdict %s", delta, rep.Final)
	if rep.Final == core.ViolationFound {
		fmt.Printf(" (witness %s, settle %s)", rep.Witness, rep.WitnessSettle)
	}
	fmt.Println()
	_ = circuit.InvalidNet
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
