// Package sdf implements the pragmatic subset of the Standard Delay
// Format needed to back-annotate gate delays onto a netlist — the
// "processing SDF backannotation" the paper lists as the path to
// industrial circuits. Supported constructs:
//
//	(DELAYFILE (SDFVERSION "…") (DESIGN "…") (TIMESCALE 1ns)
//	  (CELL (CELLTYPE "NAND2") (INSTANCE g10)
//	    (DELAY (ABSOLUTE (IOPATH a y (2:3:4) (2:3:4))))))
//
// Instances are matched to gates by the gate's output-net name (the
// usual convention for netlists whose gates are named by the nets they
// drive). Each IOPATH value is an rtriple min:typ:max or a single
// number; the gate's delay (d_max) becomes the largest max over its
// IOPATHs. The mins are checked but not stored: floating mode reads
// d_max only. Values are scaled by TIMESCALE into integer picoseconds. A value that is negative, not finite, has its min above
// its max, or scales to waveform.PosInf or beyond is an error.
// Unsupported constructs are skipped, not rejected.
package sdf

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/waveform"
)

// Annotation is the outcome of applying an SDF file.
type Annotation struct {
	// Design and Version echo the file header (may be empty).
	Design, Version string
	// TimescalePS is the multiplier applied to raw values (picoseconds
	// per SDF unit).
	TimescalePS float64
	// Applied counts gates whose delays were back-annotated.
	Applied int
	// Missing lists INSTANCE names with no matching gate.
	Missing []string
}

// Apply parses SDF from r and back-annotates the circuit's gate delays
// in place.
func Apply(c *circuit.Circuit, r io.Reader) (*Annotation, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sdf: read: %v", err)
	}
	root, err := parse(string(src))
	if err != nil {
		return nil, err
	}
	if root.head() != "DELAYFILE" {
		return nil, fmt.Errorf("sdf: top-level form is %q, want DELAYFILE", root.head())
	}
	an := &Annotation{TimescalePS: 1000} // SDF default timescale: 1ns
	for _, form := range root.lists() {
		switch form.head() {
		case "SDFVERSION":
			an.Version = form.atomAt(1)
		case "DESIGN":
			an.Design = form.atomAt(1)
		case "TIMESCALE":
			ts, err := parseTimescale(form.atomsAfterHead())
			if err != nil {
				return nil, err
			}
			an.TimescalePS = ts
		case "CELL":
			if err := applyCell(c, form, an); err != nil {
				return nil, err
			}
		}
	}
	return an, nil
}

// ApplyString is Apply over a string.
func ApplyString(c *circuit.Circuit, s string) (*Annotation, error) {
	return Apply(c, strings.NewReader(s))
}

func applyCell(c *circuit.Circuit, cell *node, an *Annotation) error {
	instance := ""
	dmax := -1.0
	for _, form := range cell.lists() {
		switch form.head() {
		case "INSTANCE":
			instance = form.atomAt(1)
		case "DELAY":
			for _, abs := range form.lists() {
				if abs.head() != "ABSOLUTE" && abs.head() != "INCREMENT" {
					continue
				}
				for _, iop := range abs.lists() {
					if iop.head() != "IOPATH" {
						continue
					}
					for _, val := range iop.lists() {
						lo, hi, err := parseTriple(val)
						if err != nil {
							return err
						}
						// Also false for NaN and infinite bounds.
						if !(0 <= lo && lo <= hi && hi*an.TimescalePS < float64(waveform.PosInf)) {
							return fmt.Errorf("sdf: delay %q is not 0 <= min <= max < %d ps", val.raw, waveform.PosInf)
						}
						dmax = max(dmax, hi)
					}
				}
			}
		}
	}
	if instance == "" || dmax < 0 {
		return nil // header cell or no delays: skip
	}
	id, ok := c.NetByName(instance)
	if !ok || c.Net(id).Driver == circuit.InvalidGate {
		an.Missing = append(an.Missing, instance)
		return nil
	}
	c.SetDelay(c.Net(id).Driver, int64(math.Round(dmax*an.TimescalePS)))
	an.Applied++
	return nil
}

// parseTriple reads an rtriple list node: (min:typ:max) or (v). The
// node's atoms were tokenised as one string.
func parseTriple(n *node) (lo, hi float64, err error) {
	s := strings.TrimSpace(n.raw)
	if s == "" {
		return 0, 0, fmt.Errorf("sdf: empty delay value")
	}
	parts := strings.Split(s, ":")
	switch len(parts) {
	case 1:
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("sdf: bad delay value %q", s)
		}
		return v, v, nil
	case 3:
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("sdf: bad rtriple %q", s)
		}
		return lo, hi, nil
	default:
		return 0, 0, fmt.Errorf("sdf: bad delay value %q", s)
	}
}

// parseTimescale converts forms like (TIMESCALE 1ns), (TIMESCALE 100 ps)
// into picoseconds per unit.
func parseTimescale(atoms []string) (float64, error) {
	joined := strings.Join(atoms, "")
	i := 0
	for i < len(joined) && (joined[i] == '.' || joined[i] >= '0' && joined[i] <= '9') {
		i++
	}
	numStr, unit := joined[:i], strings.ToLower(joined[i:])
	if numStr == "" {
		numStr = "1"
	}
	num, err := strconv.ParseFloat(numStr, 64)
	if err != nil {
		return 0, fmt.Errorf("sdf: bad TIMESCALE %q", joined)
	}
	mult, ok := map[string]float64{"s": 1e12, "ms": 1e9, "us": 1e6, "ns": 1e3, "ps": 1, "fs": 1e-3}[unit]
	if !ok {
		return 0, fmt.Errorf("sdf: bad TIMESCALE unit %q", unit)
	}
	return num * mult, nil
}

// node is an S-expression: either an atom (raw non-empty, children nil)
// or a list of children. For list nodes raw holds the concatenated
// leading atom text, convenient for delay values like "2:3:4".
type node struct {
	raw      string
	children []*node
	isList   bool
}

func (n *node) head() string {
	if !n.isList || len(n.children) == 0 {
		return ""
	}
	return strings.ToUpper(n.children[0].raw)
}

func (n *node) lists() []*node {
	var out []*node
	for _, c := range n.children {
		if c.isList {
			out = append(out, c)
		}
	}
	return out
}

func (n *node) atomAt(i int) string {
	if i < len(n.children) && !n.children[i].isList {
		return strings.Trim(n.children[i].raw, `"`)
	}
	return ""
}

func (n *node) atomsAfterHead() []string {
	var out []string
	for _, c := range n.children[1:] {
		if !c.isList {
			out = append(out, c.raw)
		}
	}
	return out
}

// parse tokenises and builds the S-expression tree.
func parse(src string) (*node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	pos := 0
	var rec func() (*node, error)
	rec = func() (*node, error) {
		if pos >= len(toks) {
			return nil, fmt.Errorf("sdf: unexpected end of input")
		}
		t := toks[pos]
		pos++
		if t == "(" {
			n := &node{isList: true}
			for {
				if pos >= len(toks) {
					return nil, fmt.Errorf("sdf: missing )")
				}
				if toks[pos] == ")" {
					pos++
					// Cache the atoms' text for value parsing.
					var raws []string
					for _, c := range n.children {
						if !c.isList {
							raws = append(raws, c.raw)
						}
					}
					n.raw = strings.Join(raws, "")
					return n, nil
				}
				child, err := rec()
				if err != nil {
					return nil, err
				}
				n.children = append(n.children, child)
			}
		}
		if t == ")" {
			return nil, fmt.Errorf("sdf: unbalanced )")
		}
		return &node{raw: t}, nil
	}
	root, err := rec()
	if err != nil {
		return nil, err
	}
	if pos != len(toks) {
		return nil, fmt.Errorf("sdf: trailing tokens after top-level form")
	}
	return root, nil
}

func lex(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("sdf: unterminated string")
			}
			toks = append(toks, src[i:j+1])
			i = j + 1
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		default:
			j := i
			for j < len(src) && !strings.ContainsRune("() \t\n\r\"", rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks, nil
}
