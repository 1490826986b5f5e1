package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
)

// C17 builds the exact ISCAS'85 c17 netlist (six 2-input NANDs), the
// one benchmark small enough to be fully public knowledge.
func C17(d int64) *circuit.Circuit {
	b := circuit.NewBuilder("c17")
	for _, n := range []string{"G1", "G2", "G3", "G6", "G7"} {
		b.Input(n)
	}
	b.Gate(circuit.NAND, d, "G10", "G1", "G3")
	b.Gate(circuit.NAND, d, "G11", "G3", "G6")
	b.Gate(circuit.NAND, d, "G16", "G2", "G11")
	b.Gate(circuit.NAND, d, "G19", "G11", "G7")
	b.Gate(circuit.NAND, d, "G22", "G10", "G16")
	b.Gate(circuit.NAND, d, "G23", "G16", "G19")
	b.Output("G22")
	b.Output("G23")
	c, err := b.Build()
	if err != nil {
		panic("gen: C17: " + err.Error())
	}
	return c
}

// Random builds a seeded random DAG netlist with the given number of
// primary inputs and gates. Fan-in is 1–3, targets are biased towards
// recent nets so the circuit gains depth, and two outputs are exposed.
func Random(seed int64, nPI, nGates int, d int64) *circuit.Circuit {
	r := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder(fmt.Sprintf("rand%d", seed))
	var nets []string
	for i := 0; i < nPI; i++ {
		n := fmt.Sprintf("i%d", i)
		b.Input(n)
		nets = append(nets, n)
	}
	types := []circuit.GateType{
		circuit.AND, circuit.NAND, circuit.OR, circuit.NOR,
		circuit.NOT, circuit.BUFFER, circuit.XOR, circuit.XNOR,
	}
	for i := 0; i < nGates; i++ {
		gt := types[r.Intn(len(types))]
		name := fmt.Sprintf("g%d", i)
		nin := 1
		if !gt.Unate() {
			nin = 2 + r.Intn(2)
		}
		ins := make([]string, nin)
		for j := range ins {
			k := len(nets) - 1 - r.Intn(minInt(len(nets), 8))
			ins[j] = nets[k]
		}
		b.Gate(gt, d, name, ins...)
		nets = append(nets, name)
	}
	b.Output(nets[len(nets)-1])
	if len(nets) > nPI+1 {
		b.Output(nets[len(nets)-2])
	}
	c, err := b.Build()
	if err != nil {
		panic("gen: Random: " + err.Error())
	}
	return c
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ParityTree builds a balanced XOR tree over n inputs (the ECC-flavour
// block used by the c499/c1355 substitutes). Inputs x0…x(n−1), output z.
func ParityTree(n int, d int64) *circuit.Circuit {
	b := circuit.NewBuilder(fmt.Sprintf("parity%d", n))
	var layer []string
	for i := 0; i < n; i++ {
		in := fmt.Sprintf("x%d", i)
		b.Input(in)
		layer = append(layer, in)
	}
	lvl := 0
	for len(layer) > 1 {
		var next []string
		for i := 0; i+1 < len(layer); i += 2 {
			o := fmt.Sprintf("t%d_%d", lvl, i/2)
			b.Gate(circuit.XOR, d, o, layer[i], layer[i+1])
			next = append(next, o)
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
		lvl++
	}
	b.Gate(circuit.BUFFER, 0, "z", layer[0])
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		panic("gen: ParityTree: " + err.Error())
	}
	return c
}

// Comparator builds an n-bit equality comparator with shared select
// reconvergence: eq = AND over XNOR(a_i, b_i). Inputs a*/b*, output eq.
func Comparator(n int, d int64) *circuit.Circuit {
	b := circuit.NewBuilder(fmt.Sprintf("cmp%d", n))
	var bits []string
	for i := 0; i < n; i++ {
		a := fmt.Sprintf("a%d", i)
		x := fmt.Sprintf("b%d", i)
		b.Input(a)
		b.Input(x)
		e := fmt.Sprintf("eq%d", i)
		b.Gate(circuit.XNOR, d, e, a, x)
		bits = append(bits, e)
	}
	// Linear AND chain (deep, like the ISCAS comparators).
	cur := bits[0]
	for i := 1; i < n; i++ {
		o := fmt.Sprintf("and%d", i)
		b.Gate(circuit.AND, d, o, cur, bits[i])
		cur = o
	}
	b.Gate(circuit.BUFFER, 0, "eq", cur)
	b.Output("eq")
	c, err := b.Build()
	if err != nil {
		panic("gen: Comparator: " + err.Error())
	}
	return c
}

// aluBlock appends an n-bit ALU-flavoured block to the builder: a
// ripple adder spine, a logic unit, and an output mux driven by shared
// select nets (the shared selects create the false paths and the
// reconvergent stems the paper's stages exercise). Returns the output
// net names.
func aluBlock(b *circuit.Builder, prefix string, n int, d int64) []string {
	in := func(base string, i int) string { return fmt.Sprintf("%s_%s%d", prefix, base, i) }
	for i := 0; i < n; i++ {
		b.Input(in("a", i))
		b.Input(in("b", i))
	}
	sel := prefix + "_sel"
	b.Input(sel)
	nsel := prefix + "_nsel"
	b.Gate(circuit.NOT, d, nsel, sel)
	carry := prefix + "_c0"
	b.Gate(circuit.AND, d, carry, sel, nsel) // constant 0 carry-in with gate depth
	var outs []string
	for i := 0; i < n; i++ {
		fa := fmt.Sprintf("%s_fa%d", prefix, i)
		sum, cout := fullAdder(b, d, fa, in("a", i), in("b", i), carry)
		carry = cout
		lg := fmt.Sprintf("%s_lg%d", prefix, i)
		b.Gate(circuit.NAND, d, lg, in("a", i), in("b", i))
		// Output mux: sel ? sum : logic — sel is shared across bits.
		m0 := fmt.Sprintf("%s_m0_%d", prefix, i)
		m1 := fmt.Sprintf("%s_m1_%d", prefix, i)
		o := fmt.Sprintf("%s_o%d", prefix, i)
		b.Gate(circuit.AND, d, m1, sel, sum)
		b.Gate(circuit.AND, d, m0, nsel, lg)
		b.Gate(circuit.OR, d, o, m1, m0)
		outs = append(outs, o)
	}
	outs = append(outs, carry)
	return outs
}

// SuiteEntry describes one circuit of the Table-1 substitute suite,
// with the original benchmark's published topological delay and exact
// floating delay for the side-by-side comparison in EXPERIMENTS.md.
type SuiteEntry struct {
	Name    string
	Circuit *circuit.Circuit
	// PaperTop and PaperDelta are Table 1's "CIRCUIT MAX. TOP." and
	// exact-δ columns for the original ISCAS circuit (informational).
	PaperTop, PaperDelta int64
	// Substituted is false only for c17, which is reproduced exactly.
	Substituted bool
}

// SubstituteSuite builds the Table-1 workload: c17 exactly, and for
// every other ISCAS'85 circuit a deterministic synthetic stand-in of
// comparable structure (see DESIGN.md §4), NOR-mapped with a uniform
// delay of 10 per gate exactly as in the paper's experiments.
func SubstituteSuite() []SuiteEntry {
	const d = 10
	nor := func(c *circuit.Circuit, name string) *circuit.Circuit {
		m, err := circuit.MapToNOR(c, d)
		if err != nil {
			panic("gen: SubstituteSuite: " + err.Error())
		}
		m.Name = name
		return m
	}
	build := func(name string, f func(b *circuit.Builder)) *circuit.Circuit {
		b := circuit.NewBuilder(name)
		f(b)
		c, err := b.Build()
		if err != nil {
			panic("gen: SubstituteSuite " + name + ": " + err.Error())
		}
		return c
	}

	var entries []SuiteEntry
	entries = append(entries, SuiteEntry{Name: "c17", Circuit: C17(d), PaperTop: 50, PaperDelta: 50})

	// c432-sub: interrupt-controller flavour — priority chains with
	// shared enables.
	c432 := build("c432sub", func(b *circuit.Builder) {
		var prev string
		for g := 0; g < 3; g++ {
			en := fmt.Sprintf("en%d", g)
			b.Input(en)
			for i := 0; i < 6; i++ {
				r := fmt.Sprintf("r%d_%d", g, i)
				b.Input(r)
				q := fmt.Sprintf("q%d_%d", g, i)
				b.Gate(circuit.AND, 1, q, r, en)
				if prev == "" {
					prev = q
					continue
				}
				o := fmt.Sprintf("p%d_%d", g, i)
				np := fmt.Sprintf("np%d_%d", g, i)
				b.Gate(circuit.NOT, 1, np, prev)
				b.Gate(circuit.OR, 1, o, q, np)
				prev = o
			}
			b.Output(prev)
		}
	})
	entries = append(entries, SuiteEntry{Name: "c432", Circuit: nor(c432, "c432sub_nor"), PaperTop: 190, PaperDelta: 190, Substituted: true})

	// c499-sub: XOR-dominated ECC block (ECAT flavour).
	c499 := build("c499sub", func(b *circuit.Builder) {
		var syn []string
		for t := 0; t < 4; t++ {
			var layer []string
			for i := 0; i < 8; i++ {
				in := fmt.Sprintf("x%d_%d", t, i)
				b.Input(in)
				layer = append(layer, in)
			}
			lvl := 0
			for len(layer) > 1 {
				var next []string
				for i := 0; i+1 < len(layer); i += 2 {
					o := fmt.Sprintf("t%d_%d_%d", t, lvl, i/2)
					b.Gate(circuit.XOR, 1, o, layer[i], layer[i+1])
					next = append(next, o)
				}
				if len(layer)%2 == 1 {
					next = append(next, layer[len(layer)-1])
				}
				layer, lvl = next, lvl+1
			}
			syn = append(syn, layer[0])
			b.Output(layer[0])
		}
		// Corrector: AND of syndromes gated back into data outputs.
		all := "syn"
		b.Gate(circuit.AND, 1, all, syn...)
		for i := 0; i < 8; i++ {
			o := fmt.Sprintf("z%d", i)
			b.Gate(circuit.XOR, 1, o, all, fmt.Sprintf("x0_%d", i))
			b.Output(o)
		}
	})
	entries = append(entries, SuiteEntry{Name: "c499", Circuit: nor(c499, "c499sub_nor"), PaperTop: 250, PaperDelta: 250, Substituted: true})

	// c880-sub: 8-bit ALU.
	c880 := build("c880sub", func(b *circuit.Builder) {
		for _, o := range aluBlock(b, "u", 8, 1) {
			b.Output(o)
		}
	})
	entries = append(entries, SuiteEntry{Name: "c880", Circuit: nor(c880, "c880sub_nor"), PaperTop: 200, PaperDelta: 200, Substituted: true})

	// c1355-sub: the c499 function with every XOR already expanded —
	// here simply a deeper ECC with 2-input gates only (the NOR mapping
	// expands it further, like the real c1355).
	c1355 := build("c1355sub", func(b *circuit.Builder) {
		var syn []string
		for t := 0; t < 4; t++ {
			var layer []string
			for i := 0; i < 8; i++ {
				in := fmt.Sprintf("y%d_%d", t, i)
				b.Input(in)
				layer = append(layer, in)
			}
			lvl := 0
			for len(layer) > 1 {
				var next []string
				for i := 0; i+1 < len(layer); i += 2 {
					// XOR out of NANDs (4 gates) to mimic the expanded
					// implementation.
					p := fmt.Sprintf("u%d_%d_%d", t, lvl, i/2)
					q1 := p + "_q1"
					q2 := p + "_q2"
					q3 := p + "_q3"
					b.Gate(circuit.NAND, 1, q1, layer[i], layer[i+1])
					b.Gate(circuit.NAND, 1, q2, layer[i], q1)
					b.Gate(circuit.NAND, 1, q3, layer[i+1], q1)
					b.Gate(circuit.NAND, 1, p, q2, q3)
					next = append(next, p)
				}
				if len(layer)%2 == 1 {
					next = append(next, layer[len(layer)-1])
				}
				layer, lvl = next, lvl+1
			}
			syn = append(syn, layer[0])
			b.Output(layer[0])
		}
		all := "syn"
		b.Gate(circuit.AND, 1, all, syn...)
		for i := 0; i < 8; i++ {
			o := fmt.Sprintf("z%d", i)
			b.Gate(circuit.XOR, 1, o, all, fmt.Sprintf("y0_%d", i))
			b.Output(o)
		}
	})
	entries = append(entries, SuiteEntry{Name: "c1355", Circuit: nor(c1355, "c1355sub_nor"), PaperTop: 270, PaperDelta: 270, Substituted: true})

	// c1908-sub: ECC + carry-skip spine — the deep-output/dominator
	// showcase (the paper's dominator anecdote lives on c1908).
	c1908 := build("c1908sub", func(b *circuit.Builder) {
		csaOuts := appendCarrySkip(b, "k", 8, 4, 1)
		for _, o := range csaOuts {
			b.Output(o)
		}
		var layer []string
		for i := 0; i < 8; i++ {
			in := fmt.Sprintf("w%d", i)
			b.Input(in)
			layer = append(layer, in)
		}
		lvl := 0
		for len(layer) > 1 {
			var next []string
			for i := 0; i+1 < len(layer); i += 2 {
				o := fmt.Sprintf("pt%d_%d", lvl, i/2)
				b.Gate(circuit.XOR, 1, o, layer[i], layer[i+1])
				next = append(next, o)
			}
			if len(layer)%2 == 1 {
				next = append(next, layer[len(layer)-1])
			}
			layer, lvl = next, lvl+1
		}
		// Mix the parity into the adder's carry output for extra depth.
		b.Gate(circuit.XOR, 1, "chk", layer[0], csaOuts[len(csaOuts)-1])
		b.Output("chk")
	})
	entries = append(entries, SuiteEntry{Name: "c1908", Circuit: nor(c1908, "c1908sub_nor"), PaperTop: 340, PaperDelta: 310, Substituted: true})

	// c2670-sub: adder + comparator with heavily shared control nets,
	// plus the stem-correlation gadget as its longest structure (the
	// paper's c2670 is decided by stem correlation; see appendStemGadget).
	c2670 := build("c2670sub", func(b *circuit.Builder) {
		b.Input("g_x0")
		b.Input("g_s0")
		appendStemGadget(b, "g_", 60, 1)
		b.Output("g_z")
		outs := aluBlock(b, "v", 10, 1)
		for _, o := range outs {
			b.Output(o)
		}
		var bits []string
		for i := 0; i < 10; i++ {
			e := fmt.Sprintf("ceq%d", i)
			b.Gate(circuit.XNOR, 1, e, fmt.Sprintf("v_a%d", i), fmt.Sprintf("v_b%d", i))
			bits = append(bits, e)
		}
		cur := bits[0]
		for i := 1; i < 10; i++ {
			o := fmt.Sprintf("cand%d", i)
			b.Gate(circuit.AND, 1, o, cur, bits[i])
			cur = o
		}
		// Gate the comparator with the ALU carry: both reconverge on
		// the shared a/b inputs.
		b.Gate(circuit.AND, 1, "agree", cur, outs[len(outs)-1])
		b.Output("agree")
	})
	entries = append(entries, SuiteEntry{Name: "c2670", Circuit: nor(c2670, "c2670sub_nor"), PaperTop: 250, PaperDelta: 240, Substituted: true})

	// c3540-sub: wider ALU with two stacked stages.
	c3540 := build("c3540sub", func(b *circuit.Builder) {
		first := aluBlock(b, "s1", 8, 1)
		second := aluBlock(b, "s2", 8, 1)
		for i := 0; i < 8; i++ {
			o := fmt.Sprintf("m%d", i)
			b.Gate(circuit.XOR, 1, o, first[i], second[i])
			b.Output(o)
		}
		b.Gate(circuit.OR, 1, "cc", first[8], second[8])
		b.Output("cc")
	})
	entries = append(entries, SuiteEntry{Name: "c3540", Circuit: nor(c3540, "c3540sub_nor"), PaperTop: 410, PaperDelta: 390, Substituted: true})

	// c5315-sub: three ALU slices cross-checked.
	c5315 := build("c5315sub", func(b *circuit.Builder) {
		x := aluBlock(b, "x", 9, 1)
		y := aluBlock(b, "y", 9, 1)
		z := aluBlock(b, "z", 9, 1)
		for i := 0; i < 9; i++ {
			o := fmt.Sprintf("o%d", i)
			t := fmt.Sprintf("t%d", i)
			b.Gate(circuit.XOR, 1, t, x[i], y[i])
			b.Gate(circuit.XOR, 1, o, t, z[i])
			b.Output(o)
		}
		b.Gate(circuit.OR, 1, "anycarry", x[9], y[9], z[9])
		b.Output("anycarry")
	})
	entries = append(entries, SuiteEntry{Name: "c5315", Circuit: nor(c5315, "c5315sub_nor"), PaperTop: 460, PaperDelta: 450, Substituted: true})

	// c6288-sub: a real array multiplier.
	entries = append(entries, SuiteEntry{Name: "c6288", Circuit: nor(ArrayMultiplier(8, 1), "c6288sub_nor"), PaperTop: 1230, PaperDelta: 1220, Substituted: true})

	// c7552-sub: wide adder + comparator + parity, shared operands.
	c7552 := build("c7552sub", func(b *circuit.Builder) {
		outs := aluBlock(b, "w", 12, 1)
		for _, o := range outs {
			b.Output(o)
		}
		var bits []string
		for i := 0; i < 12; i++ {
			e := fmt.Sprintf("peq%d", i)
			b.Gate(circuit.XNOR, 1, e, fmt.Sprintf("w_a%d", i), fmt.Sprintf("w_b%d", i))
			bits = append(bits, e)
		}
		lvl := 0
		layer := bits
		for len(layer) > 1 {
			var next []string
			for i := 0; i+1 < len(layer); i += 2 {
				o := fmt.Sprintf("pp%d_%d", lvl, i/2)
				b.Gate(circuit.AND, 1, o, layer[i], layer[i+1])
				next = append(next, o)
			}
			if len(layer)%2 == 1 {
				next = append(next, layer[len(layer)-1])
			}
			layer, lvl = next, lvl+1
		}
		b.Gate(circuit.BUFFER, 1, "alleq", layer[0])
		b.Output("alleq")
	})
	entries = append(entries, SuiteEntry{Name: "c7552", Circuit: nor(c7552, "c7552sub_nor"), PaperTop: 380, PaperDelta: 370, Substituted: true})

	return entries
}

// appendCarrySkip inlines a carry-skip adder into an existing builder
// with a name prefix, returning the sum outputs plus the final carry.
func appendCarrySkip(b *circuit.Builder, prefix string, n, block int, d int64) []string {
	in := func(base string, i int) string { return fmt.Sprintf("%s_%s%d", prefix, base, i) }
	for i := 0; i < n; i++ {
		b.Input(in("a", i))
		b.Input(in("b", i))
	}
	cin := prefix + "_cin"
	b.Input(cin)
	carryIn := cin
	blockIdx := 0
	var outs []string
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		ripple := carryIn
		var props []string
		for i := lo; i < hi; i++ {
			fa := fmt.Sprintf("%s_fa%d", prefix, i)
			sum, cout := fullAdder(b, d, fa, in("a", i), in("b", i), ripple)
			outs = append(outs, sum)
			props = append(props, fa+"_p")
			ripple = cout
		}
		blockIdx++
		bp := fmt.Sprintf("%s_P%d", prefix, blockIdx)
		if len(props) == 1 {
			b.Gate(circuit.BUFFER, d, bp, props[0])
		} else {
			b.Gate(circuit.AND, d, bp, props...)
		}
		nbp := fmt.Sprintf("%s_NP%d", prefix, blockIdx)
		skip := fmt.Sprintf("%s_skip%d", prefix, blockIdx)
		rip := fmt.Sprintf("%s_rip%d", prefix, blockIdx)
		bc := fmt.Sprintf("%s_c%d", prefix, blockIdx)
		b.Gate(circuit.NOT, d, nbp, bp)
		b.Gate(circuit.AND, d, skip, bp, carryIn)
		b.Gate(circuit.AND, d, rip, nbp, ripple)
		b.Gate(circuit.OR, d, bc, skip, rip)
		carryIn = bc
	}
	outs = append(outs, carryIn)
	return outs
}
