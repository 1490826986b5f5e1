package circuit

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// BenchOptions control .bench parsing.
type BenchOptions struct {
	// DefaultDelay is the d_max assigned to gates without an explicit
	// "# !delay=" directive. The paper's experiments use 10.
	DefaultDelay int64
	// Name is the circuit name; defaults to "bench".
	Name string
}

// ReadBench parses an ISCAS'85-style .bench netlist:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G17)
//	G10 = NAND(G1, G3)          # !delay=12
//
// The non-standard trailing "# !delay=N" directive backannotates the
// gate's maximum delay; all other comments are ignored. The gate
// mnemonics of the paper's library are accepted (AND, NAND, OR, NOR,
// NOT/INV, BUF/BUFF/BUFFER, DELAY, XOR, XNOR).
func ReadBench(r io.Reader, opt BenchOptions) (*Circuit, error) {
	if opt.DefaultDelay == 0 {
		opt.DefaultDelay = 1
	}
	if opt.Name == "" {
		opt.Name = "bench"
	}
	// The parser works on the scanner's line buffer in place: a gate
	// line copies out only the names of nets seen for the first time,
	// and one input-id buffer serves every gate line.
	b := NewBuilder(opt.Name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var ins []NetID
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		delay := opt.DefaultDelay
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			comment := bytes.TrimSpace(line[i+1:])
			if bytes.HasPrefix(comment, []byte("!delay=")) {
				d, err := strconv.ParseInt(string(bytes.TrimSpace(comment[len("!delay="):])), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bench line %d: bad !delay directive: %v", lineNo, err)
				}
				delay = d
			}
			line = line[:i]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		switch last := line[len(line)-1]; {
		case hasPrefixFold(line, "INPUT(") && last == ')':
			b.Input(string(bytes.TrimSpace(line[len("INPUT(") : len(line)-1])))
		case hasPrefixFold(line, "OUTPUT(") && last == ')':
			b.Output(string(bytes.TrimSpace(line[len("OUTPUT(") : len(line)-1])))
		default:
			eq := bytes.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("bench line %d: expected assignment, got %q", lineNo, line)
			}
			out := bytes.TrimSpace(line[:eq])
			rhs := bytes.TrimSpace(line[eq+1:])
			open := bytes.IndexByte(rhs, '(')
			if open < 0 || rhs[len(rhs)-1] != ')' {
				return nil, fmt.Errorf("bench line %d: malformed gate expression %q", lineNo, rhs)
			}
			tname := bytes.TrimSpace(rhs[:open])
			gt, ok := ParseGateType(string(tname))
			if !ok {
				return nil, fmt.Errorf("bench line %d: unknown gate type %q", lineNo, tname)
			}
			// Inputs resolve before the output, in order, as Builder.Gate
			// does, so net ids come out the same.
			ins = ins[:0]
			for args := rhs[open+1 : len(rhs)-1]; ; {
				f, rest, more := bytes.Cut(args, []byte{','})
				if f = bytes.TrimSpace(f); len(f) == 0 {
					return nil, fmt.Errorf("bench line %d: empty input name", lineNo)
				}
				ins = append(ins, b.netBytes(f))
				if !more {
					break
				}
				args = rest
			}
			b.GateIDs(gt, delay, b.netBytes(out), ins...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read: %v", err)
	}
	return b.Build()
}

// hasPrefixFold reports whether s begins with the upper-case prefix,
// folding ASCII lower-case letters of s to upper case; other bytes
// compare as they are.
func hasPrefixFold(s []byte, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// WriteBench renders the circuit in .bench syntax, emitting a
// "# !delay=" directive on every gate line so delays round-trip.
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# circuit %s: %d gates, %d nets\n", c.Name, c.NumGates(), c.NumNets())
	for _, pi := range c.PrimaryInputs() {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Net(pi).Name)
	}
	for _, po := range c.PrimaryOutputs() {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Net(po).Name)
	}
	for _, gid := range c.TopoGates() {
		g := c.Gate(gid)
		names := make([]string, len(g.Inputs))
		for i, in := range g.Inputs {
			names[i] = c.Net(in).Name
		}
		fmt.Fprintf(bw, "%s = %s(%s) # !delay=%d\n", c.Net(g.Output).Name, g.Type, strings.Join(names, ", "), g.Delay)
	}
	return bw.Flush()
}

// ParseBenchString is ReadBench over a string.
func ParseBenchString(s string, opt BenchOptions) (*Circuit, error) {
	return ReadBench(strings.NewReader(s), opt)
}

// BenchString renders the circuit to a .bench string (panics only on
// impossible writer errors).
func BenchString(c *Circuit) string {
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		panic(err)
	}
	return sb.String()
}
