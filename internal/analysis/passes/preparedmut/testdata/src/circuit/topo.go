package circuit

// Levels writes the layout from a file that neither declares nor
// builds it.
func Levels(l *Layout) {
	l.Out[0] = 1               // want `assignment mutates shared circuit\.Layout`
	l.Delay[0]++               // want `\+\+ mutates shared circuit\.Layout`
	copy(l.Delay, l.Delay[1:]) // want `copy\(\) into mutates shared circuit\.Layout`
}
