package circuit

// Layout mirrors circuit.Layout: the only store of a built circuit's
// gates. This file declares it, so its writes are allowed.
type Layout struct {
	Out   []int
	Delay []int64
}

// SetDelay is the one writer of a built circuit's delays.
func (l *Layout) SetDelay(g int, d int64) { l.Delay[g] = d }
