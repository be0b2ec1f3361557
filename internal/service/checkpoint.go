package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Checkpoint file names within a state directory. Save never writes
// the current file in place: the frame lands in the temp file, is
// fsynced, and only then renamed over the current name — a crash at
// any instant leaves either the old checkpoint or the new one, never a
// torn file under the current name. The previous checkpoint is rotated
// aside first so Load can fall back if the current file is later found
// corrupt (bit rot, filesystem damage — rename atomicity already rules
// out torn writes).
const (
	checkpointFile = "checkpoint.cqsc"
	checkpointPrev = "checkpoint.cqsc.prev"
	checkpointTmp  = "checkpoint.cqsc.tmp"
)

// Checkpointer persists snapshots atomically in one state directory.
// Safe for concurrent use, though the server serializes saves anyway.
type Checkpointer struct {
	dir string

	mu    sync.Mutex
	seq   uint64 // last sequence number written (or adopted from a restore)
	frame []byte // Save's frame buffer, reused across saves
}

// NewCheckpointer creates the state directory if needed.
func NewCheckpointer(dir string) (*Checkpointer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	return &Checkpointer{dir: dir}, nil
}

// CurrentPath returns the path of the current checkpoint file.
func (c *Checkpointer) CurrentPath() string { return filepath.Join(c.dir, checkpointFile) }

// Save assigns the snapshot the next sequence number and writes it
// atomically: temp file → fsync → rotate current to .prev → rename
// temp to current → fsync directory.
func (c *Checkpointer) Save(s *Snapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	s.Seq = c.seq
	c.frame = s.appendFrame(c.frame[:0])
	data := c.frame

	tmp := filepath.Join(c.dir, checkpointTmp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("service: checkpoint tmp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("service: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("service: checkpoint fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("service: checkpoint close: %w", err)
	}

	cur := filepath.Join(c.dir, checkpointFile)
	if _, err := os.Stat(cur); err == nil {
		if err := os.Rename(cur, filepath.Join(c.dir, checkpointPrev)); err != nil {
			return fmt.Errorf("service: checkpoint rotate: %w", err)
		}
	}
	if err := os.Rename(tmp, cur); err != nil {
		return fmt.Errorf("service: checkpoint commit: %w", err)
	}
	// Persist the renames themselves; without the directory fsync a
	// power cut can forget the commit even though the data blocks hit
	// disk. Some filesystems reject directory syncs — then rename
	// durability is the platform's best effort and there is nothing
	// more to do.
	if d, err := os.Open(c.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Load reads the best available checkpoint: the current file, or the
// rotated previous one when the current is missing or fails
// validation. It returns the snapshot and which file supplied it
// ("current" or "prev"); a state directory with no checkpoint at all
// returns (nil, "", nil) — a cold start, not an error. Both files
// present but invalid is an error: there was durable state and none of
// it is readable. The loaded sequence number is adopted, so subsequent
// saves continue the sequence instead of restarting it.
func (c *Checkpointer) Load() (*Snapshot, string, error) {
	cur := filepath.Join(c.dir, checkpointFile)
	prev := filepath.Join(c.dir, checkpointPrev)

	snap, curErr := loadFile(cur)
	if snap != nil {
		c.adopt(snap.Seq)
		return snap, "current", nil
	}
	snap, prevErr := loadFile(prev)
	if snap != nil {
		c.adopt(snap.Seq)
		return snap, "prev", nil
	}
	if os.IsNotExist(curErr) && os.IsNotExist(prevErr) {
		return nil, "", nil
	}
	return nil, "", fmt.Errorf("service: no loadable checkpoint (current: %v; prev: %v)", curErr, prevErr)
}

// adopt continues the sequence from a restored snapshot.
func (c *Checkpointer) adopt(seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq > c.seq {
		c.seq = seq
	}
}

// loadFile reads and decodes one checkpoint file.
func loadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}
