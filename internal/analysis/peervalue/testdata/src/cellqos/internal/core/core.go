// Package core is the peervalue fixture stub: the validator the
// analyzer keys on by package path and name.
package core

import "math"

// PeerValue mirrors core.PeerValue.
func PeerValue(v float64, ok bool) (float64, bool) {
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, false
	}
	return v, true
}
