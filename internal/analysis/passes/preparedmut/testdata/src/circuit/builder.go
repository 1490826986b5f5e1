package circuit

// AddGate appends a gate; builder.go is a configured constructor file,
// so these writes are allowed.
func AddGate(l *Layout, out int, d int64) {
	l.Out = append(l.Out, out)
	l.Delay = append(l.Delay, d)
}
