package circuit

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
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
	if opt.DefaultDelay == 0 {
		opt.DefaultDelay = 1
	}
	if opt.Name == "" {
		opt.Name = "bench"
	}
	b := NewBuilder(opt.Name)
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
					return nil, fmt.Errorf("bench line %d: bad !delay directive: %v", lineNo, err)
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
			b.Input(strings.TrimSpace(line[len("INPUT(") : len(line)-1]))
		case strings.HasPrefix(refUpper(line), "OUTPUT(") && strings.HasSuffix(line, ")"):
			b.Output(strings.TrimSpace(line[len("OUTPUT(") : len(line)-1]))
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench line %d: expected assignment, got %q", lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			if open < 0 || !strings.HasSuffix(rhs, ")") {
				return nil, fmt.Errorf("bench line %d: malformed gate expression %q", lineNo, rhs)
			}
			tname := strings.TrimSpace(rhs[:open])
			gt, ok := refParseGateType(tname)
			if !ok {
				return nil, fmt.Errorf("bench line %d: unknown gate type %q", lineNo, tname)
			}
			var ins []string
			for _, f := range strings.Split(rhs[open+1:len(rhs)-1], ",") {
				f = strings.TrimSpace(f)
				if f == "" {
					return nil, fmt.Errorf("bench line %d: empty input name", lineNo)
				}
				ins = append(ins, f)
			}
			b.Gate(gt, delay, out, ins...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read: %v", err)
	}
	return b.Build()
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
// output, delays), the PI and PO order or the topological order. ""
// means the two agree.
func DiffParses(src string, opt BenchOptions) string {
	got, gerr := ParseBenchString(src, opt)
	want, werr := ReferenceReadBench(strings.NewReader(src), opt)
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
			return fmt.Sprintf("net %d = %+v, reference %+v", i, *g, *w)
		}
	}
	for i := 0; i < want.NumGates(); i++ {
		if g, w := got.Gate(GateID(i)), want.Gate(GateID(i)); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("gate %d = %+v, reference %+v", i, *g, *w)
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
	return ""
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
// the Net records, kept as the reference the rewrite must reproduce.
// Exported (test builds only) for package circuit_test.
func ReferenceReconvergentStems(c *Circuit) []NetID {
	var stems []NetID
	reach := make([]int32, len(c.nets))
	stamp := int32(0)
	for i := range c.nets {
		n := &c.nets[i]
		if len(n.Fanout) < 2 {
			continue
		}
		stamp++
		base := stamp
		recon := false
	branches:
		for _, g := range n.Fanout {
			stack := []NetID{c.gates[g].Output}
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
				for _, fg := range c.nets[x].Fanout {
					stack = append(stack, c.gates[fg].Output)
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
