//go:build race

package core

// raceEnabled reports a -race build; serial, deterministic tests whose
// runtime the detector multiplies without adding coverage skip there.
const raceEnabled = true
