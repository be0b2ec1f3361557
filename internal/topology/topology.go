// Package topology models the cell-adjacency structure of a cellular
// network: one-dimensional rings and open lines (the paper's highway
// scenarios, Fig. 2(a)) and two-dimensional hexagonal grids (Fig. 2(b)).
//
// Cells carry global IDs 0..N-1. In addition each cell has a *local*,
// cell-centric index space used by the paper's mobility estimation: from
// cell A's point of view, A itself is index 0 and its neighbors are
// numbered 1..deg(A) (Fig. 2). Hand-off event quadruplets store prev/next
// in this local space, with prev = 0 meaning "the connection was born in
// this cell".
package topology

import "fmt"

// CellID is a global cell identifier in [0, NumCells).
type CellID int

// None is the invalid cell; used e.g. for "mobile left the coverage area".
const None CellID = -1

// LocalIndex is a cell-centric neighbor index: 0 is the cell itself,
// 1..deg are its neighbors in Neighbors order.
type LocalIndex int

// Self is the local index of the cell itself (paper: prev = 0 marks a
// connection that started in the current cell).
const Self LocalIndex = 0

// Kind distinguishes the supported topology families.
type Kind int

const (
	// KindRing is a 1-D array of cells with the two border cells joined
	// (the paper's default: "we connected two border cells ... so that the
	// whole cellular system forms a ring").
	KindRing Kind = iota
	// KindLine is a 1-D open array; border cells have one neighbor
	// (used for the paper's Table 3 one-directional scenario).
	KindLine
	// KindHex is a 2-D hexagonal grid (axial coordinates), optionally
	// wrapped into a torus to avoid border effects.
	KindHex
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindRing:
		return "ring"
	case KindLine:
		return "line"
	case KindHex:
		return "hex"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Topology is an immutable cell-adjacency graph. All methods are safe for
// concurrent use after construction.
type Topology struct {
	kind       Kind
	n          int
	neighbors  [][]CellID
	local      []map[CellID]LocalIndex // inverse of neighbors, per cell
	rows, cols int                     // hex only
	wrap       bool                    // hex only
}

// Kind returns the topology family.
func (t *Topology) Kind() Kind { return t.kind }

// NumCells returns the number of cells.
func (t *Topology) NumCells() int { return t.n }

// Valid reports whether c is a cell of this topology.
func (t *Topology) Valid(c CellID) bool { return c >= 0 && int(c) < t.n }

// Neighbors returns the adjacent cells of c in canonical order. The
// returned slice must not be modified.
func (t *Topology) Neighbors(c CellID) []CellID {
	t.check(c)
	return t.neighbors[c]
}

// Degree returns the number of neighbors of c.
func (t *Topology) Degree(c CellID) int { return len(t.Neighbors(c)) }

// Adjacent reports whether a and b are distinct neighboring cells.
func (t *Topology) Adjacent(a, b CellID) bool {
	t.check(a)
	t.check(b)
	for _, n := range t.neighbors[a] {
		if n == b {
			return true
		}
	}
	return false
}

// WithinHops returns every cell reachable from c in at most h hops,
// excluding c itself, in breadth-first (hence deterministic) order.
func (t *Topology) WithinHops(c CellID, h int) []CellID {
	t.check(c)
	if h <= 0 {
		return nil
	}
	visited := make(map[CellID]bool, t.n)
	visited[c] = true
	frontier := []CellID{c}
	var out []CellID
	for hop := 0; hop < h && len(frontier) > 0; hop++ {
		var next []CellID
		for _, u := range frontier {
			for _, nb := range t.neighbors[u] {
				if !visited[nb] {
					visited[nb] = true
					out = append(out, nb)
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	return out
}

// LocalOf returns cell other's index in center's cell-centric space:
// Self (0) when other == center, 1..deg when adjacent. ok is false when
// other is neither center nor one of its neighbors.
func (t *Topology) LocalOf(center, other CellID) (LocalIndex, bool) {
	t.check(center)
	if other == center {
		return Self, true
	}
	li, ok := t.local[center][other]
	return li, ok
}

// FromLocal resolves a local index in center's space back to a global
// cell ID. ok is false for out-of-range indices.
func (t *Topology) FromLocal(center CellID, li LocalIndex) (CellID, bool) {
	t.check(center)
	if li == Self {
		return center, true
	}
	i := int(li) - 1
	if i < 0 || i >= len(t.neighbors[center]) {
		return None, false
	}
	return t.neighbors[center][i], true
}

func (t *Topology) check(c CellID) {
	if !t.Valid(c) {
		panic(fmt.Sprintf("topology: cell %d out of range [0,%d)", c, t.n))
	}
}

// finish builds the inverse local-index maps and validates symmetry.
func finish(t *Topology) *Topology {
	t.local = make([]map[CellID]LocalIndex, t.n)
	for c := 0; c < t.n; c++ {
		m := make(map[CellID]LocalIndex, len(t.neighbors[c]))
		for i, nb := range t.neighbors[c] {
			m[nb] = LocalIndex(i + 1)
		}
		t.local[CellID(c)] = m
	}
	for c := CellID(0); int(c) < t.n; c++ {
		for _, nb := range t.neighbors[c] {
			if !t.Adjacent(nb, c) {
				panic(fmt.Sprintf("topology: asymmetric adjacency %d->%d", c, nb))
			}
		}
	}
	return t
}

// Ring builds a 1-D cellular system of n ≥ 3 cells with wrap-around, the
// paper's default simulation layout. Neighbor order is [left, right]
// (left = lower index modulo n).
func Ring(n int) *Topology {
	if n < 3 {
		panic("topology: ring needs n >= 3")
	}
	t := &Topology{kind: KindRing, n: n, neighbors: make([][]CellID, n)}
	for i := 0; i < n; i++ {
		left := CellID((i - 1 + n) % n)
		right := CellID((i + 1) % n)
		t.neighbors[i] = []CellID{left, right}
	}
	return finish(t)
}

// Line builds a 1-D open cellular system of n ≥ 2 cells; the border cells
// have a single neighbor. Neighbor order is [left, right] where present.
func Line(n int) *Topology {
	if n < 2 {
		panic("topology: line needs n >= 2")
	}
	t := &Topology{kind: KindLine, n: n, neighbors: make([][]CellID, n)}
	for i := 0; i < n; i++ {
		var ns []CellID
		if i > 0 {
			ns = append(ns, CellID(i-1))
		}
		if i < n-1 {
			ns = append(ns, CellID(i+1))
		}
		t.neighbors[i] = ns
	}
	return finish(t)
}
