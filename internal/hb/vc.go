// Package hb implements the offline happens-before data-race detector of
// §2.1 and §4.4: vector clocks for the synchronization events and the
// epoch core of internal/shadow for the per-address access history,
// preceded by a replayer that reconstructs a legal cross-thread order
// from the per-SyncVar logical timestamps (the 128 hashed counters of
// §4.2).
package hb

// VC is a vector clock: VC[t] is the latest known clock of thread t.
// Thread ids index directly; the slice grows on demand.
type VC []uint64

// At returns the clock for thread t (0 when unknown).
func (v VC) At(t int32) uint64 {
	if int(t) < len(v) {
		return v[t]
	}
	return 0
}

// ensure grows v so index t is valid and returns the (possibly new) slice.
func (v VC) ensure(t int32) VC {
	for int(t) >= len(v) {
		v = append(v, 0)
	}
	return v
}

// Set assigns thread t's clock and returns the (possibly grown) slice.
func (v VC) Set(t int32, c uint64) VC {
	v = v.ensure(t)
	v[t] = c
	return v
}

// Tick increments thread t's clock and returns the (possibly grown) slice.
func (v VC) Tick(t int32) VC {
	v = v.ensure(t)
	v[t]++
	return v
}

// Join merges u into v pointwise (v = v ⊔ u) and returns the result.
func (v VC) Join(u VC) VC {
	if len(u) > len(v) {
		v = v.ensure(int32(len(u) - 1))
	}
	for i, c := range u {
		if c > v[i] {
			v[i] = c
		}
	}
	return v
}

// Clone returns an independent copy of v.
func (v VC) Clone() VC { return append(VC(nil), v...) }

// LEq reports whether v happens-before-or-equals u pointwise (v ⊑ u).
func (v VC) LEq(u VC) bool {
	for i, c := range v {
		if c > u.At(int32(i)) {
			return false
		}
	}
	return true
}
