// Package warm is a per-sink memo in the shape of the engine's former
// warm-start cache: the memo map under the verifier's warmMu,
// per-memo state under its own mutex, the TryLock fast path with a
// deferred unlock, and the "Caller holds w.mu" helper convention.
package warm

import "sync"

type warmState struct {
	mu          sync.Mutex
	snap        []int64 // guarded by mu
	snapDelta   int64   // guarded by mu
	snapValid   bool    // guarded by mu
	inconsDelta int64   // guarded by mu
	inconsValid bool    // guarded by mu
}

type Verifier struct {
	warmMu sync.Mutex
	warm   map[int]*warmState // guarded by warmMu
}

func (v *Verifier) warmFor(sink int) *warmState {
	v.warmMu.Lock()
	defer v.warmMu.Unlock()
	if v.warm == nil { // ok
		v.warm = map[int]*warmState{} // ok
	}
	w := v.warm[sink] // ok
	if w == nil {
		w = &warmState{}
		v.warm[sink] = w // ok
	}
	return w
}

func (v *Verifier) racyLookup(sink int) *warmState {
	return v.warm[sink] // want `read of Verifier.warm without holding v.warmMu`
}

// noteFixpoint records a usable snapshot. Caller holds w.mu.
func (w *warmState) noteFixpoint(snap []int64, delta int64) {
	w.snap = append(w.snap[:0], snap...) // ok
	w.snapDelta = delta                  // ok
	w.snapValid = true                   // ok
}

// noteRefuted records a refutation floor. Caller holds w.mu.
func (w *warmState) noteRefuted(delta int64) {
	w.inconsDelta = delta // ok
	w.inconsValid = true  // ok
}

// tryRun is the production fast-path shape: the memo is only read
// inside the TryLock-true branch, and the deferred unlock keeps the
// guard held for the rest of the block.
func (v *Verifier) tryRun(sink int, delta int64) (seeded, refuted bool) {
	if w := v.warmFor(sink); w.mu.TryLock() {
		defer w.mu.Unlock()
		switch {
		case w.inconsValid && delta >= w.inconsDelta: // ok
			refuted = true
		case w.snapValid && delta >= w.snapDelta: // ok
			seeded = len(w.snap) > 0 // ok
		}
	}
	return seeded, refuted
}

func (v *Verifier) racyTry(sink int, delta int64) int64 {
	w := v.warmFor(sink)
	if !w.mu.TryLock() {
		return 0
	}
	d := w.snapDelta // ok: negated TryLock falls through holding the lock
	w.mu.Unlock()
	return d + w.snapDelta // want `read of warmState.snapDelta without holding w.mu`
}

func racyNote(w *warmState, delta int64) {
	w.snapDelta = delta // want `write of warmState.snapDelta without holding w.mu`
	w.snapValid = true  // want `write of warmState.snapValid without holding w.mu`
}

func racyRefuted(w *warmState) bool {
	return w.inconsValid // want `read of warmState.inconsValid without holding w.mu`
}

func racySnap(w *warmState) []int64 {
	return w.snap // want `read of warmState.snap without holding w.mu`
}

func racyIncons(w *warmState) int64 {
	return w.inconsDelta // want `read of warmState.inconsDelta without holding w.mu`
}
