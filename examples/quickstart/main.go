// Quickstart: build a small netlist, run a floating-mode timing check,
// and compute the exact floating delay of an output.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/circuit"
	"repro/internal/core"
)

func main() {
	// A four-gate netlist with a false path: the long chain through n2
	// is gated by b, and b also gates the short path, so the two
	// requirements conflict for late transitions.
	b := circuit.NewBuilder("quickstart")
	b.Input("a")
	b.Input("b")
	b.Gate(circuit.BUFFER, 10, "n1", "a")
	b.Gate(circuit.AND, 10, "n2", "n1", "b")
	b.Gate(circuit.NOT, 10, "nb", "b")
	b.Gate(circuit.OR, 10, "z", "n2", "nb")
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	v := core.NewVerifier(c, core.Default())
	z, _ := c.NetByName("z")
	fmt.Printf("circuit %q: %d gates, topological delay %s\n",
		c.Name, c.NumGates(), v.Topological())

	// Timing check: can z still change at or after t = 40?
	rep := v.Run(context.Background(), core.Request{Sink: z, Delta: 40})
	fmt.Printf("check (z, 40): %s\n", rep.Final)

	// Exact floating-mode delay with a witnessing input vector.
	res, err := v.ExactFloatingDelayCtx(context.Background(), z, core.Request{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact floating delay of z: %s (witness vector %s, PI order a,b)\n",
		res.Delay, res.Witness)

	// The same netlist as .bench text, for the ltta command-line tool.
	fmt.Println("\n.bench form:")
	fmt.Print(circuit.BenchString(c))
}
