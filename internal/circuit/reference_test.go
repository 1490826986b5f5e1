package circuit

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// ReferenceReadBench is the line-copying .bench parser ReadBench
// replaced, kept verbatim as the reference the rewrite must reproduce:
// the same nets, ids, gates and delays for every input it accepts and
// the same error for every input it rejects. Exported (test builds
// only) for the generator-driven tests in package circuit_test.
func ReferenceReadBench(r io.Reader, opt BenchOptions) (*Circuit, error) {
	c, _, err := referenceReadBench(r, opt)
	return c, err
}

// referenceReadBench is ReferenceReadBench returning, in addition, the
// recording of its builder calls.
func referenceReadBench(r io.Reader, opt BenchOptions) (*Circuit, *refNetlist, error) {
	if opt.DefaultDelay == 0 {
		opt.DefaultDelay = 1
	}
	if opt.Name == "" {
		opt.Name = "bench"
	}
	rec := newRefNetlist(opt.Name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		delay := opt.DefaultDelay
		if i := strings.Index(line, "#"); i >= 0 {
			comment := strings.TrimSpace(line[i+1:])
			if strings.HasPrefix(comment, "!delay=") {
				d, err := strconv.ParseInt(strings.TrimSpace(comment[len("!delay="):]), 10, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("bench line %d: bad !delay directive: %v", lineNo, err)
				}
				delay = d
			}
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(refUpper(line), "INPUT(") && strings.HasSuffix(line, ")"):
			rec.input(strings.TrimSpace(line[len("INPUT(") : len(line)-1]))
		case strings.HasPrefix(refUpper(line), "OUTPUT(") && strings.HasSuffix(line, ")"):
			rec.output(strings.TrimSpace(line[len("OUTPUT(") : len(line)-1]))
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, nil, fmt.Errorf("bench line %d: expected assignment, got %q", lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			if open < 0 || !strings.HasSuffix(rhs, ")") {
				return nil, nil, fmt.Errorf("bench line %d: malformed gate expression %q", lineNo, rhs)
			}
			tname := strings.TrimSpace(rhs[:open])
			gt, ok := refParseGateType(tname)
			if !ok {
				return nil, nil, fmt.Errorf("bench line %d: unknown gate type %q", lineNo, tname)
			}
			var ins []string
			for _, f := range strings.Split(rhs[open+1:len(rhs)-1], ",") {
				f = strings.TrimSpace(f)
				if f == "" {
					return nil, nil, fmt.Errorf("bench line %d: empty input name", lineNo)
				}
				ins = append(ins, f)
			}
			rec.gate(gt, delay, out, ins...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("bench: read: %v", err)
	}
	c, err := rec.build()
	return c, rec, err
}

// refParseGateType is ParseGateType as ReferenceReadBench knew it.
func refParseGateType(s string) (GateType, bool) {
	switch refUpper(s) {
	case "AND":
		return AND, true
	case "NAND":
		return NAND, true
	case "OR":
		return OR, true
	case "NOR":
		return NOR, true
	case "NOT", "INV":
		return NOT, true
	case "BUF", "BUFF", "BUFFER":
		return BUFFER, true
	case "DELAY", "DEL":
		return DELAY, true
	case "XOR":
		return XOR, true
	case "XNOR":
		return XNOR, true
	}
	return 0, false
}

// refUpper folds ASCII lower-case letters to upper case, copying s.
func refUpper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// DiffParses parses src with ReadBench and ReferenceReadBench and
// describes the first difference: the accept/reject decision, the
// error text, or — for accepted input — the circuit name, any net
// (id, name, driver, fanout, PI/PO flags), any gate (type, inputs,
// output, delays), the PI and PO order or the topological order, or
// any difference between ReadBench's circuit and the recording of the
// reference parser's builder calls. "" means they all agree.
func DiffParses(src string, opt BenchOptions) string {
	got, gerr := ParseBenchString(src, opt)
	want, rec, werr := referenceReadBench(strings.NewReader(src), opt)
	switch {
	case (gerr == nil) != (werr == nil):
		return fmt.Sprintf("error %v, reference error %v", gerr, werr)
	case gerr != nil:
		if gerr.Error() != werr.Error() {
			return fmt.Sprintf("error %q, reference error %q", gerr, werr)
		}
		return ""
	case got.Name != want.Name:
		return fmt.Sprintf("name %q, reference %q", got.Name, want.Name)
	case got.NumNets() != want.NumNets() || got.NumGates() != want.NumGates():
		return fmt.Sprintf("%d nets / %d gates, reference %d / %d", got.NumNets(), got.NumGates(), want.NumNets(), want.NumGates())
	}
	for i := 0; i < want.NumNets(); i++ {
		if g, w := got.Net(NetID(i)), want.Net(NetID(i)); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("net %d = %+v, reference %+v", i, g, w)
		}
	}
	for i := 0; i < want.NumGates(); i++ {
		if g, w := got.Gate(GateID(i)), want.Gate(GateID(i)); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("gate %d = %+v, reference %+v", i, g, w)
		}
	}
	switch {
	case !reflect.DeepEqual(got.PrimaryInputs(), want.PrimaryInputs()):
		return fmt.Sprintf("inputs %v, reference %v", got.PrimaryInputs(), want.PrimaryInputs())
	case !reflect.DeepEqual(got.PrimaryOutputs(), want.PrimaryOutputs()):
		return fmt.Sprintf("outputs %v, reference %v", got.PrimaryOutputs(), want.PrimaryOutputs())
	case !reflect.DeepEqual(got.TopoGates(), want.TopoGates()):
		return fmt.Sprintf("topological order %v, reference %v", got.TopoGates(), want.TopoGates())
	}
	return rec.diff(got)
}

// TestReadBenchMatchesReferenceEdgeCases drives both parsers over the
// corners of the syntax: case folding (ASCII only), whitespace the
// Unicode-aware trimming removes, delay directives in every accepted
// and rejected spelling, and each error path.
func TestReadBenchMatchesReferenceEdgeCases(t *testing.T) {
	cases := []string{
		c17Bench,
		"input(a)\noutput(z)\nz = nand(a, a)\n",
		"Input(a)\nOutPut(z)\nz = Buffer(a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = bUf(a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = inv(a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = DEL(a) # !delay=4\n",
		"INPUT(a)\nOUTPUT(z)\nz = ınv(a)\n", // dotless i: no ASCII fold
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) \n",
		"\u0085INPUT(a) \nOUTPUT(z)\nz = NOT( a )\n",
		"\tINPUT(\ta\t)\t\nOUTPUT(z)\r\nz\t=\tNOT(a)\r\n",
		"INPUT()\nOUTPUT(z)\nz = NOT()\n",
		"INPUT(a)\nOUTPUT(z)\nz = AND(a,,a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = AND(a, )\n",
		"INPUT(a)\nOUTPUT(z)\nz = AND(a,b\n",
		"INPUT(a)\nOUTPUT(z)\nz = (a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = MYSTERY(a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = BUFFERS(a)\n",
		"INPUT(a)\nOUTPUT(z)\nz NOT(a)\n",
		"INPUT(a)\nOUTPUT(z)\n = NOT(a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = = NOT(a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a)) # !delay=3\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT((a)\n",
		"INPUT(a\nOUTPUT(z)\nz = NOT(a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) #!delay=  17  \n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !delay=+17\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !delay=-17\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !delay=007\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !delay=\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !delay=1_000\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !delay=0x10\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !delay=12x\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !delay=999999999999999999\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !delay=9223372036854775807\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !delay=9223372036854775808\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !DELAY=5\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # note !delay=5\n",
		"INPUT(a) # !delay=bad\nOUTPUT(z)\nz = NOT(a)\n",
		"INPUT(a) # !delay=5\nOUTPUT(z)\nz = NOT(a)\n",
		"# !delay=5\nINPUT(a)\nOUTPUT(z)\nz = NOT(a) # # !delay=5\n",
		"INPUT(a)\nINPUT(a)\nOUTPUT(z)\nOUTPUT(z)\nz = NOT(a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = NOT(a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(w)\nw = NOT(z)\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a, a)\n",
		"INPUT(z)\nOUTPUT(z)\nz = NOT(z)\n",
		"INPUT(a)\n",
		"",
		"INPUT(b)\nINPUT(a)\nOUTPUT(y)\nOUTPUT(x)\nx = XOR(b, a, c)\nc = AND(a, b)\ny = OR(x, c, a)\n",
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n" + strings.Repeat("x", 1<<16) + "\n",
	}
	for _, opt := range []BenchOptions{{}, {DefaultDelay: 10, Name: "t"}} {
		for i, src := range cases {
			if d := DiffParses(src, opt); d != "" {
				t.Errorf("case %d (%+v): %s\ninput: %q", i, opt, d, src)
			}
		}
	}
}

// TestReadBenchAllocs pins the parser's allocation profile: a gate
// line of known nets copies nothing, so parsing a circuit allocates a
// small constant per gate (its input-id slice and fanout growth) plus
// one string per net name.
func TestReadBenchAllocs(t *testing.T) {
	src := c17Bench
	got := testing.AllocsPerRun(20, func() {
		if _, err := ParseBenchString(src, BenchOptions{DefaultDelay: 10}); err != nil {
			t.Fatal(err)
		}
	})
	ref := testing.AllocsPerRun(20, func() {
		if _, err := ReferenceReadBench(strings.NewReader(src), BenchOptions{DefaultDelay: 10}); err != nil {
			t.Fatal(err)
		}
	})
	if got >= ref {
		t.Fatalf("ReadBench allocates %.0f times on c17, reference %.0f", got, ref)
	}
	name := []byte("nand")
	if _, ok := ParseGateType(string(name)); !ok {
		t.Fatal("nand not recognised")
	}
	if n := testing.AllocsPerRun(20, func() { ParseGateType(string(name)) }); n != 0 {
		t.Fatalf("ParseGateType(string(b)) allocates %.0f times", n)
	}
}

// ReferenceReconvergentStems is the ReconvergentStems that allocated a
// fresh depth-first stack for every fanout branch and read fanout from
// the Net views, kept as the reference the rewrite must reproduce.
// Exported (test builds only) for package circuit_test.
func ReferenceReconvergentStems(c *Circuit) []NetID {
	var stems []NetID
	reach := make([]int32, c.NumNets())
	stamp := int32(0)
	for i := 0; i < c.NumNets(); i++ {
		n := c.Net(NetID(i))
		if len(n.Fanout) < 2 {
			continue
		}
		stamp++
		base := stamp
		recon := false
	branches:
		for _, g := range n.Fanout {
			stack := []NetID{c.Gate(g).Output}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if reach[x] >= base {
					if reach[x] != stamp {
						recon = true
						break branches
					}
					continue
				}
				reach[x] = stamp
				for _, fg := range c.Net(x).Fanout {
					stack = append(stack, c.Gate(fg).Output)
				}
			}
			stamp++
		}
		if recon {
			stems = append(stems, n.ID)
		}
	}
	return stems
}

// refNetlist records a netlist call by call beside a Builder: what the
// builder was told, in plain per-net and per-gate records that share
// nothing with the circuit's store. diff checks a built circuit's
// every view, Layout array and SetDelay effect against it.
type refNetlist struct {
	b        *Builder // nil for a recording made without one
	c        *Circuit // b's circuit once built
	name     string
	ids      map[string]NetID
	names    []string // by net id, in order of first mention
	pi, po   []bool
	pis, pos []NetID
	gates    []refGate
}

// refGate is one recorded gate.
type refGate struct {
	typ   GateType
	in    []NetID
	out   NetID
	delay int64
}

func newRefNetlist(name string) *refNetlist {
	return &refNetlist{b: NewBuilder(name), name: name, ids: map[string]NetID{}}
}

// net records the named net: ids count up in order of first mention.
func (r *refNetlist) net(name string) NetID {
	if r.b != nil {
		r.b.Net(name)
	}
	id, ok := r.ids[name]
	if !ok {
		id = NetID(len(r.names))
		r.ids[name] = id
		r.names = append(r.names, name)
		r.pi = append(r.pi, false)
		r.po = append(r.po, false)
	}
	return id
}

func (r *refNetlist) input(name string) {
	if id := r.net(name); !r.pi[id] {
		r.pi[id] = true
		r.pis = append(r.pis, id)
	}
	if r.b != nil {
		r.b.Input(name)
	}
}

func (r *refNetlist) output(name string) {
	if id := r.net(name); !r.po[id] {
		r.po[id] = true
		r.pos = append(r.pos, id)
	}
	if r.b != nil {
		r.b.Output(name)
	}
}

// gate records Builder.Gate: the inputs resolve before the output.
func (r *refNetlist) gate(t GateType, d int64, out string, in ...string) {
	g := refGate{typ: t, delay: d}
	for _, n := range in {
		g.in = append(g.in, r.net(n))
	}
	g.out = r.net(out)
	r.gates = append(r.gates, g)
	if r.b != nil {
		r.b.Gate(t, d, out, in...)
	}
}

// gateIDs records Builder.GateIDs.
func (r *refNetlist) gateIDs(t GateType, d int64, out NetID, in ...NetID) {
	r.gates = append(r.gates, refGate{typ: t, in: slices.Clone(in), out: out, delay: d})
	r.b.GateIDs(t, d, out, in...)
}

func (r *refNetlist) build() (*Circuit, error) {
	c, err := r.b.Build()
	r.c = c
	return c, err
}

// setDelay records Circuit.SetDelay on the built circuit.
func (r *refNetlist) setDelay(g GateID, d int64) {
	r.gates[g].delay = d
	r.c.SetDelay(g, d)
}

// drivers returns each net's driving gate and fanout gates, in gate
// order and once per input pin.
func (r *refNetlist) drivers() (drv []GateID, fanout [][]GateID) {
	drv = make([]GateID, len(r.names))
	fanout = make([][]GateID, len(r.names))
	for n := range drv {
		drv[n] = InvalidGate
	}
	for g, rg := range r.gates {
		drv[rg.out] = GateID(g)
		for _, in := range rg.in {
			fanout[in] = append(fanout[in], GateID(g))
		}
	}
	return drv, fanout
}

// refOp is the opcode the Layout documents for a gate of type t with k
// inputs.
func refOp(t GateType, k int) Op {
	switch t {
	case BUFFER, DELAY:
		return OpBuffer
	case NOT:
		return OpNot
	case XOR:
		return OpXor
	case XNOR:
		return OpXnor
	}
	byFanin := map[GateType][3]Op{
		AND: {OpAndOr1, OpAnd2, OpAnd}, NAND: {OpNandNor1, OpNand2, OpNand},
		OR: {OpAndOr1, OpOr2, OpOr}, NOR: {OpNandNor1, OpNor2, OpNor},
	}
	return byFanin[t][min(k, 3)-1]
}

// diff describes the first difference between circuit c and the
// recording, "" when there is none.
func (r *refNetlist) diff(c *Circuit) string {
	pins := 0
	for _, g := range r.gates {
		pins += len(g.in)
	}
	switch {
	case c.Name != r.name:
		return fmt.Sprintf("name %q, recorded %q", c.Name, r.name)
	case c.NumNets() != len(r.names) || c.NumGates() != len(r.gates) || c.NumPins() != pins:
		return fmt.Sprintf("%d nets / %d gates / %d pins, recorded %d / %d / %d",
			c.NumNets(), c.NumGates(), c.NumPins(), len(r.names), len(r.gates), pins)
	case !slices.Equal(c.PrimaryInputs(), r.pis) || !slices.Equal(c.PrimaryOutputs(), r.pos):
		return fmt.Sprintf("inputs %v outputs %v, recorded %v %v", c.PrimaryInputs(), c.PrimaryOutputs(), r.pis, r.pos)
	}
	l := c.Layout()
	drv, fanout := r.drivers()
	for i, name := range r.names {
		n := NetID(i)
		v := c.Net(n)
		want := Net{ID: n, Name: name, Driver: drv[n], Fanout: fanout[n], IsPI: r.pi[n], IsPO: r.po[n]}
		if v.ID != want.ID || v.Name != want.Name || v.Driver != want.Driver || !slices.Equal(v.Fanout, want.Fanout) ||
			v.IsPI != want.IsPI || v.IsPO != want.IsPO || cap(v.Fanout) != len(v.Fanout) {
			return fmt.Sprintf("net %d = %+v (cap %d), recorded %+v", n, v, cap(v.Fanout), want)
		}
		gates := slices.Clone(fanout[n])
		if drv[n] != InvalidGate {
			gates = slices.Insert(gates, 0, drv[n])
		}
		if id, ok := c.NetByName(name); !ok || id != n {
			return fmt.Sprintf("NetByName(%q) = %d, %v, recorded %d", name, id, ok, n)
		}
		if l.Driver(n) != drv[n] || !slices.Equal(l.Fanout(n), fanout[n]) || !slices.Equal(l.Gates(n), gates) ||
			c.FanoutCount(n) != len(fanout[n]) || c.IsStem(n) != (len(fanout[n]) >= 2) {
			return fmt.Sprintf("net %d: layout driver %d, fanout %v, gates %v, recorded %d, %v, %v",
				n, l.Driver(n), l.Fanout(n), l.Gates(n), drv[n], fanout[n], gates)
		}
	}
	for i, rg := range r.gates {
		g := GateID(i)
		v := c.Gate(g)
		if v.ID != g || v.Type != rg.typ || !slices.Equal(v.Inputs, rg.in) || v.Output != rg.out ||
			v.Delay != rg.delay || cap(v.Inputs) != len(v.Inputs) {
			return fmt.Sprintf("gate %d = %+v (cap %d), recorded %+v", g, v, cap(v.Inputs), rg)
		}
		if !slices.Equal(l.Inputs(g), rg.in) || l.Out[g] != rg.out || l.Type[g] != rg.typ ||
			l.Delay[g] != rg.delay || l.Op[g] != refOp(rg.typ, len(rg.in)) {
			return fmt.Sprintf("gate %d: layout inputs %v, out %d, type %s, delay %d, op %d, recorded %+v",
				g, l.Inputs(g), l.Out[g], l.Type[g], l.Delay[g], l.Op[g], rg)
		}
	}
	// The topological order: every gate once, after the drivers of its
	// inputs; the levels follow from it.
	level := make([]int, len(r.names))
	placed := make([]bool, len(r.gates))
	if len(c.TopoGates()) != len(r.gates) {
		return fmt.Sprintf("topological order has %d gates, recorded %d", len(c.TopoGates()), len(r.gates))
	}
	for _, g := range c.TopoGates() {
		rg := r.gates[g]
		lvl := 0
		for _, in := range rg.in {
			if d := drv[in]; d != InvalidGate && !placed[d] {
				return fmt.Sprintf("topological order %v places gate %d before gate %d", c.TopoGates(), g, d)
			}
			lvl = max(lvl, level[in]+1)
		}
		if placed[g] {
			return fmt.Sprintf("topological order %v places gate %d twice", c.TopoGates(), g)
		}
		placed[g] = true
		level[rg.out] = lvl
	}
	for n := range r.names {
		if c.Level(NetID(n)) != level[n] {
			return fmt.Sprintf("net %d at level %d, recorded %d", n, c.Level(NetID(n)), level[n])
		}
	}
	return ""
}

// cone records the fan-in cone of sink as ExtractConeMapped documents
// it: the cone's nets in increasing id order, its gates in the given
// topological order with their delays, and sink its only output.
// It returns the recording and the original id of each cone net.
func (r *refNetlist) cone(sink NetID, topo []GateID) (*refNetlist, []NetID) {
	drv, _ := r.drivers()
	in := make([]bool, len(r.names))
	in[sink] = true
	for stack := []NetID{sink}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d := drv[n]; d != InvalidGate {
			for _, x := range r.gates[d].in {
				if !in[x] {
					in[x] = true
					stack = append(stack, x)
				}
			}
		}
	}
	k := &refNetlist{name: r.name + "_cone_" + r.names[sink], ids: map[string]NetID{}}
	var from []NetID
	for n, name := range r.names {
		switch {
		case !in[n]:
			continue
		case r.pi[n]:
			k.input(name)
		default:
			k.net(name)
		}
		from = append(from, NetID(n))
	}
	for _, g := range topo {
		if rg := r.gates[g]; in[rg.out] {
			kg := refGate{typ: rg.typ, out: k.ids[r.names[rg.out]], delay: rg.delay}
			for _, x := range rg.in {
				kg.in = append(kg.in, k.ids[r.names[x]])
			}
			k.gates = append(k.gates, kg)
		}
	}
	k.output(r.names[sink])
	return k, from
}

// StoreDiff rebuilds c through a Builder with the same net and gate
// ids, recording every call, back-annotates every third gate with
// SetDelay, and describes the first difference between the rebuilt
// circuit and the recording, or between the cone of one of its first
// three outputs or of its first input and the cone the recording
// gives, ConeMap included. "" means they agree. Exported (test builds
// only) for the generator-driven tests in package circuit_test.
func StoreDiff(c *Circuit) string {
	r := newRefNetlist(c.Name)
	for n := 0; n < c.NumNets(); n++ {
		r.net(c.Net(NetID(n)).Name)
	}
	for _, pi := range c.PrimaryInputs() {
		r.input(c.Net(pi).Name)
	}
	// Alternate the builder's by-name and by-id gate calls.
	for i := 0; i < c.NumGates(); i++ {
		g := c.Gate(GateID(i))
		if i%2 == 0 {
			in := make([]string, len(g.Inputs))
			for j, n := range g.Inputs {
				in[j] = c.Net(n).Name
			}
			r.gate(g.Type, g.Delay, c.Net(g.Output).Name, in...)
		} else {
			r.gateIDs(g.Type, g.Delay, g.Output, g.Inputs...)
		}
	}
	for _, po := range c.PrimaryOutputs() {
		r.output(c.Net(po).Name)
	}
	rebuilt, err := r.build()
	if err != nil {
		return fmt.Sprintf("rebuild: %v", err)
	}
	for g := 0; g < rebuilt.NumGates(); g += 3 {
		r.setDelay(GateID(g), r.gates[g].delay+1+int64(g%5))
	}
	if d := r.diff(rebuilt); d != "" {
		return c.Name + ": " + d
	}
	sinks := rebuilt.PrimaryOutputs()[:min(3, len(rebuilt.PrimaryOutputs()))]
	for _, sink := range append(slices.Clone(sinks), rebuilt.PrimaryInputs()[0]) {
		cone, cm, err := ExtractConeMapped(rebuilt, sink)
		if err != nil {
			return fmt.Sprintf("cone of %d: %v", sink, err)
		}
		k, from := r.cone(sink, rebuilt.TopoGates())
		if d := k.diff(cone); d != "" {
			return cone.Name + ": " + d
		}
		toCone := make([]NetID, rebuilt.NumNets())
		for i := range toCone {
			toCone[i] = InvalidNet
		}
		for i, n := range from {
			toCone[n] = NetID(i)
		}
		piIndex := make([]int, len(k.pis))
		for i, pi := range k.pis {
			piIndex[i] = slices.Index(r.pis, from[pi])
		}
		if !slices.Equal(cm.FromCone, from) || !slices.Equal(cm.ToCone, toCone) ||
			!slices.Equal(cm.PIIndex, piIndex) || cm.Sink != toCone[sink] {
			return fmt.Sprintf("%s: cone map %+v, recorded from %v, to %v, PI index %v", cone.Name, cm, from, toCone, piIndex)
		}
	}
	return ""
}

// SpareCapacity names every array of c's netlist store whose capacity
// exceeds its length, for the external tests ("" when there is none).
func SpareCapacity(c *Circuit) string {
	l := &c.layout
	var spare []string
	check := func(name string, n, capacity int) {
		if capacity != n {
			spare = append(spare, fmt.Sprintf("%s %d/%d", name, n, capacity))
		}
	}
	check("names", len(c.names), cap(c.names))
	check("isPO", len(c.isPO), cap(c.isPO))
	check("pis", len(c.pis), cap(c.pis))
	check("pos", len(c.pos), cap(c.pos))
	check("Pins", len(l.Pins), cap(l.Pins))
	check("PinStart", len(l.PinStart), cap(l.PinStart))
	check("Out", len(l.Out), cap(l.Out))
	check("Type", len(l.Type), cap(l.Type))
	check("Delay", len(l.Delay), cap(l.Delay))
	check("Op", len(l.Op), cap(l.Op))
	check("NetStart", len(l.NetStart), cap(l.NetStart))
	check("NetGates", len(l.NetGates), cap(l.NetGates))
	return strings.Join(spare, ", ")
}
