// Package user mutates another package's shared precompute — the
// cross-package case the analyzer exists for.
package user

import "circuit"

// Remap rewrites a shared translation table after construction.
func Remap(cm *circuit.ConeMap) {
	cm.ToCone[0] = 3  // want `assignment mutates shared circuit\.ConeMap`
	cm.FromCone = nil // want `assignment mutates shared circuit\.ConeMap`
}

// Retime writes a shared circuit's delays past SetDelay.
func Retime(l *circuit.Layout) {
	l.Delay[0] = 5 // want `assignment mutates shared circuit\.Layout`
}

// Read only observes and stays silent.
func Read(cm *circuit.ConeMap) int { return cm.ToCone[0] }
