package topology

import "fmt"

// Partition splits a topology's cells into contiguous cell-cluster
// shards for the sharded simulation kernel (internal/sim/shard). Every
// cell is owned by exactly one shard; ownership is a pure function of
// the topology and the shard count, so all shard counts agree on which
// shard owns a given cell and partitioning never depends on run state.
//
// Cells are assigned by contiguous global-ID ranges. For hex grids the
// range boundaries are additionally rounded to whole rows (cell ID =
// r*cols + q, so a row is a contiguous ID block): each shard then owns a
// horizontal band of the metro and only cells in the first and last row
// of a band can have cross-shard neighbors. For rings and lines the
// plain near-equal ranges already give at most two boundary cells per
// shard.
//
// A Partition is immutable and safe for concurrent use after
// construction.
type Partition struct {
	t      *Topology
	shards int
	start  []CellID // len shards+1; shard s owns [start[s], start[s+1])
}

// NewPartition divides t into shards contiguous cell ranges. shards must
// be in [1, t.NumCells()]. For wrapped hex grids with fewer rows than
// shards the row rounding is skipped and plain ID ranges are used.
func NewPartition(t *Topology, shards int) *Partition {
	n := t.NumCells()
	if shards < 1 || shards > n {
		panic(fmt.Sprintf("topology: shard count %d out of range [1,%d]", shards, n))
	}
	p := &Partition{t: t, shards: shards, start: make([]CellID, shards+1)}
	if t.kind == KindHex && t.rows >= shards {
		// Round boundaries to whole hex rows: shard s starts at row
		// ⌈s·rows/shards⌉ (balanced bands, monotone, first band starts
		// at row 0, one-past-last is row `rows`).
		for s := 0; s <= shards; s++ {
			row := (s*t.rows + shards - 1) / shards
			if row > t.rows {
				row = t.rows
			}
			p.start[s] = CellID(row * t.cols)
		}
		// ⌈s·rows/shards⌉ is strictly increasing for rows ≥ shards, so
		// every shard owns at least one row; assert rather than trust.
		for s := 0; s < shards; s++ {
			if p.start[s] >= p.start[s+1] {
				panic("topology: hex partition produced an empty shard")
			}
		}
		return p
	}
	for s := 0; s <= shards; s++ {
		p.start[s] = CellID(s * n / shards)
	}
	return p
}

// NumShards returns the number of shards.
func (p *Partition) NumShards() int { return p.shards }

// ShardOf returns the shard owning cell c, by binary search over the
// contiguous range starts.
func (p *Partition) ShardOf(c CellID) int {
	p.t.check(c)
	lo, hi := 0, p.shards-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.start[mid] <= c {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
