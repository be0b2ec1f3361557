package faults

// Partitioned reports whether a partition is active.
func (l *Link) Partitioned() bool { return l.partitioned.Load() }

// Failed reports whether the link has crashed.
func (l *Link) Failed() bool { return l.failed.Load() }
