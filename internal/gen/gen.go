// Package gen constructs the workloads of the paper's evaluation: the
// Hrapcenko false-path circuit of Figure 1, carry-skip and ripple-carry
// adders (Figure 2 and the Section-6 adder experiment), an array
// multiplier (the c6288 stand-in), deterministic random netlists, and
// the ISCAS'85 substitute suite used to regenerate Table 1 (the
// original benchmark netlists are external data; see DESIGN.md §4 for
// the substitution argument).
package gen

import (
	"fmt"

	"repro/internal/circuit"
)

// Hrapcenko builds the false-path circuit of Figure 1 (Example 2): an
// 8-gate network whose topological delay is 7·d but whose floating-mode
// delay is 6·d, because the longest path needs the shared side input e3
// at conflicting values. Inputs e1…e7, output s.
func Hrapcenko(d int64) *circuit.Circuit {
	b := circuit.NewBuilder("hrapcenko")
	for i := 1; i <= 7; i++ {
		b.Input(fmt.Sprintf("e%d", i))
	}
	b.Gate(circuit.AND, d, "n1", "e1", "e2") // g1
	b.Gate(circuit.AND, d, "n2", "n1", "e3") // g2
	b.Gate(circuit.OR, d, "n3", "n2", "e4")  // g3
	b.Gate(circuit.AND, d, "n4", "n3", "e5") // g4
	b.Gate(circuit.AND, d, "n5", "n4", "e6") // g5
	b.Gate(circuit.OR, d, "n6", "n4", "e3")  // g6: shares e3 with g2
	b.Gate(circuit.AND, d, "n7", "n6", "e7") // g7
	b.Gate(circuit.OR, d, "s", "n7", "n5")   // g8
	b.Output("s")
	c, err := b.Build()
	if err != nil {
		panic("gen: Hrapcenko: " + err.Error())
	}
	return c
}

// FalsePathChain concatenates n copies of the Hrapcenko block, feeding
// each copy's output into the next copy's e1, multiplying the
// topological-vs-floating gap. Inputs are e<i>_<k>; the output is s.
func FalsePathChain(n int, d int64) *circuit.Circuit {
	if n < 1 {
		panic("gen: FalsePathChain needs n ≥ 1")
	}
	b := circuit.NewBuilder(fmt.Sprintf("falsepath%d", n))
	prev := ""
	for k := 0; k < n; k++ {
		e := func(i int) string { return fmt.Sprintf("e%d_%d", i, k) }
		nn := func(name string) string { return fmt.Sprintf("%s_%d", name, k) }
		first := e(1)
		if k == 0 {
			b.Input(first)
		} else {
			first = prev
		}
		for i := 2; i <= 7; i++ {
			b.Input(e(i))
		}
		b.Gate(circuit.AND, d, nn("n1"), first, e(2))
		b.Gate(circuit.AND, d, nn("n2"), nn("n1"), e(3))
		b.Gate(circuit.OR, d, nn("n3"), nn("n2"), e(4))
		b.Gate(circuit.AND, d, nn("n4"), nn("n3"), e(5))
		b.Gate(circuit.AND, d, nn("n5"), nn("n4"), e(6))
		b.Gate(circuit.OR, d, nn("n6"), nn("n4"), e(3))
		b.Gate(circuit.AND, d, nn("n7"), nn("n6"), e(7))
		b.Gate(circuit.OR, d, nn("s"), nn("n7"), nn("n5"))
		prev = nn("s")
	}
	// The chain output is the last block's s, renamed via a buffer so
	// the output net is called "s".
	b.Gate(circuit.BUFFER, 0, "s", prev)
	b.Output("s")
	c, err := b.Build()
	if err != nil {
		panic("gen: FalsePathChain: " + err.Error())
	}
	return c
}

// fullAdder emits sum and carry gates for one bit using the
// p/g decomposition (p = a⊕b, g = a·b, sum = p⊕cin,
// cout = g + p·cin) and returns the carry-out net name.
func fullAdder(b *circuit.Builder, d int64, prefix, a, x, cin string) (sum, cout string) {
	p := prefix + "_p"
	g := prefix + "_g"
	pc := prefix + "_pc"
	sum = prefix + "_s"
	cout = prefix + "_c"
	b.Gate(circuit.XOR, d, p, a, x)
	b.Gate(circuit.AND, d, g, a, x)
	b.Gate(circuit.XOR, d, sum, p, cin)
	b.Gate(circuit.AND, d, pc, p, cin)
	b.Gate(circuit.OR, d, cout, g, pc)
	return sum, cout
}

// RippleCarryAdder builds an n-bit ripple-carry adder with inputs
// a0…a(n−1), b0…b(n−1), cin and outputs s0…s(n−1), cout.
func RippleCarryAdder(n int, d int64) *circuit.Circuit {
	b := circuit.NewBuilder(fmt.Sprintf("rca%d", n))
	for i := 0; i < n; i++ {
		b.Input(fmt.Sprintf("a%d", i))
		b.Input(fmt.Sprintf("b%d", i))
	}
	b.Input("cin")
	carry := "cin"
	for i := 0; i < n; i++ {
		sum, cout := fullAdder(b, d, fmt.Sprintf("fa%d", i),
			fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), carry)
		b.Output(sum)
		carry = cout
	}
	b.Gate(circuit.BUFFER, 0, "cout", carry)
	b.Output("cout")
	c, err := b.Build()
	if err != nil {
		panic("gen: RippleCarryAdder: " + err.Error())
	}
	return c
}

// CarrySkipAdder builds an n-bit carry-skip adder with the given block
// size (Figure 2's structure): within each block the carry ripples;
// around each block a mux-based skip selects c_out = P ? c_in : ripple
// (P the AND of the block's propagate signals). Sensitising the
// in-block ripple requires P = 1, but P = 1 steers the mux to the skip
// leg — so the full ripple path is false, exactly the situation where
// the last-transition interval cannot cross the skip gates without
// dominator implications. Block-boundary carries are named c0 … cK
// (cK = cout).
func CarrySkipAdder(n, block int, d int64) *circuit.Circuit {
	if block < 1 || n < 1 {
		panic("gen: CarrySkipAdder needs n ≥ 1, block ≥ 1")
	}
	b := circuit.NewBuilder(fmt.Sprintf("csa%d_%d", n, block))
	for i := 0; i < n; i++ {
		b.Input(fmt.Sprintf("a%d", i))
		b.Input(fmt.Sprintf("b%d", i))
	}
	b.Input("cin")
	b.Gate(circuit.BUFFER, 0, "c0", "cin")
	carryIn := "c0" // block boundary carry
	blockIdx := 0
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		ripple := carryIn
		var props []string
		for i := lo; i < hi; i++ {
			prefix := fmt.Sprintf("fa%d", i)
			sum, cout := fullAdder(b, d, prefix,
				fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), ripple)
			b.Output(sum)
			props = append(props, prefix+"_p")
			ripple = cout
		}
		blockIdx++
		bp := fmt.Sprintf("P%d", blockIdx)
		if len(props) == 1 {
			b.Gate(circuit.BUFFER, d, bp, props[0])
		} else {
			b.Gate(circuit.AND, d, bp, props...)
		}
		nbp := fmt.Sprintf("NP%d", blockIdx)
		skip := fmt.Sprintf("skip%d", blockIdx)
		rip := fmt.Sprintf("rip%d", blockIdx)
		bc := fmt.Sprintf("c%d", blockIdx)
		b.Gate(circuit.NOT, d, nbp, bp)
		b.Gate(circuit.AND, d, skip, bp, carryIn)
		b.Gate(circuit.AND, d, rip, nbp, ripple)
		b.Gate(circuit.OR, d, bc, skip, rip)
		carryIn = bc
	}
	b.Gate(circuit.BUFFER, 0, "cout", carryIn)
	b.Output("cout")
	c, err := b.Build()
	if err != nil {
		panic("gen: CarrySkipAdder: " + err.Error())
	}
	return c
}

// appendStemGadget builds the stem-correlation showcase into b: a deep
// data chain from x0 feeds two equal-length branches that reconverge at
// an OR, and each branch is gated by BOTH polarities of the early
// fanout stem s (branch A needs ¬s-then-s, branch B needs s-then-¬s),
// so every full-length path is false. Local narrowing cannot refute a
// full-length timing check — at the reconvergence either branch could
// carry, so neither side value is forced — and dominator implications
// only narrow the shared chain; splitting the single stem s kills both
// branches in both classes. This is the situation the paper's stem
// correlation resolves on c2670/c6288. The data-chain input is
// <prefix>x0 and the stem-chain input <prefix>s0 (declared by the
// caller as inputs or driven nets); the output is <prefix>z.
func appendStemGadget(b *circuit.Builder, prefix string, depth int, d int64) {
	p := func(n string) string { return prefix + n }
	cur := p("x0")
	for i := 1; i <= depth; i++ {
		next := fmt.Sprintf("%sx%d", prefix, i)
		b.Gate(circuit.BUFFER, d, next, cur)
		cur = next
	}
	b.Gate(circuit.BUFFER, d, p("s"), p("s0"))
	b.Gate(circuit.NOT, d, p("ns"), p("s"))
	b.Gate(circuit.BUFFER, d, p("bs"), p("s"))
	b.Gate(circuit.AND, d, p("a1"), cur, p("ns"))
	b.Gate(circuit.AND, d, p("a2"), p("a1"), p("bs"))
	b.Gate(circuit.AND, d, p("b1"), cur, p("bs"))
	b.Gate(circuit.AND, d, p("b2"), p("b1"), p("ns"))
	b.Gate(circuit.OR, d, p("j"), p("a2"), p("b2"))
	b.Gate(circuit.BUFFER, d, p("z"), p("j"))
}

// ArrayMultiplier builds an n×n combinational array multiplier (the
// c6288 stand-in: a deep array of adders over AND partial products with
// massive reconvergent fanout). Partial-product bits are reduced column
// by column in FIFO order — keeping the long serial carry chains that
// make c6288 notoriously hard — and the result appears on p0…p(2n−1).
func ArrayMultiplier(n int, d int64) *circuit.Circuit {
	if n < 2 {
		panic("gen: ArrayMultiplier needs n ≥ 2")
	}
	b := circuit.NewBuilder(fmt.Sprintf("mult%d", n))
	for i := 0; i < n; i++ {
		b.Input(fmt.Sprintf("a%d", i))
		b.Input(fmt.Sprintf("b%d", i))
	}
	// One spare column: the reduction can structurally push a carry out
	// of weight 2n−1 even though it is provably constant 0 there.
	cols := make([][]string, 2*n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pp := fmt.Sprintf("pp%d_%d", i, j)
			b.Gate(circuit.AND, d, pp, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", j))
			cols[i+j] = append(cols[i+j], pp)
		}
	}
	cell := 0
	for w := 0; w < 2*n; w++ {
		for len(cols[w]) > 1 {
			cell++
			prefix := fmt.Sprintf("m%d", cell)
			if len(cols[w]) >= 3 {
				x, y, cin := cols[w][0], cols[w][1], cols[w][2]
				cols[w] = cols[w][3:]
				s, c := fullAdder(b, d, prefix, x, y, cin)
				cols[w] = append(cols[w], s)
				cols[w+1] = append(cols[w+1], c)
			} else {
				x, y := cols[w][0], cols[w][1]
				cols[w] = cols[w][2:]
				s := prefix + "_s"
				c := prefix + "_c"
				b.Gate(circuit.XOR, d, s, x, y)
				b.Gate(circuit.AND, d, c, x, y)
				cols[w] = append(cols[w], s)
				cols[w+1] = append(cols[w+1], c)
			}
		}
		out := fmt.Sprintf("p%d", w)
		if len(cols[w]) == 0 {
			// Constant-zero product bit (only possible at the very top
			// weight for degenerate sizes).
			b.Gate(circuit.NOT, 0, out+"_na", "a0")
			b.Gate(circuit.AND, 0, out, "a0", out+"_na")
		} else {
			b.Gate(circuit.BUFFER, 0, out, cols[w][0])
		}
		b.Output(out)
	}
	c, err := b.Build()
	if err != nil {
		panic("gen: ArrayMultiplier: " + err.Error())
	}
	return c
}
