package core_test

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
)

// ExampleVerifier_Run runs the paper's Example 2: on the Figure-1
// circuit the timing check at δ=61 is refuted while δ=60 is witnessed.
func ExampleVerifier_Run() {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	v := core.NewVerifier(c, core.Default())

	fmt.Println("check (s, 61):", v.Run(context.Background(), core.Request{Sink: s, Delta: 61}).Final)
	rep := v.Run(context.Background(), core.Request{Sink: s, Delta: 60})
	fmt.Println("check (s, 60):", rep.Final, "settle", rep.WitnessSettle)
	// Output:
	// check (s, 61): N
	// check (s, 60): V settle 60
}

// ExampleVerifier_ExactFloatingDelayCtx computes the exact floating-mode
// delay of a freshly built netlist.
func ExampleVerifier_ExactFloatingDelayCtx() {
	b := circuit.NewBuilder("demo")
	b.Input("a")
	b.Input("en")
	b.Gate(circuit.BUFFER, 10, "n1", "a")
	b.Gate(circuit.BUFFER, 10, "n2", "n1")
	b.Gate(circuit.AND, 10, "z", "n2", "en")
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	v := core.NewVerifier(c, core.Default())
	z, _ := c.NetByName("z")
	res, _ := v.ExactFloatingDelayCtx(context.Background(), z, core.Request{})
	fmt.Println("top:", v.Topological(), "floating:", res.Delay, "exact:", res.Exact)
	// Output:
	// top: 30 floating: 30 exact: true
}

// ExampleVerifier_WitnessPath extracts the sensitised path of a found
// violation.
func ExampleVerifier_WitnessPath() {
	c := gen.C17(10)
	g22, _ := c.NetByName("G22")
	v := core.NewVerifier(c, core.Default())
	rep := v.Run(context.Background(), core.Request{Sink: g22, Delta: 30})
	path, _ := v.WitnessPath(g22, rep.Witness)
	for i, n := range path {
		if i > 0 {
			fmt.Print(" -> ")
		}
		fmt.Print(c.Net(n).Name)
	}
	fmt.Println()
	// Output:
	// G3 -> G11 -> G16 -> G22
}
