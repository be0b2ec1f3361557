package shard

// CanceledRetained sums the canceled-but-queued events across shards;
// Run/RunUntil compact it to zero at teardown.
func (k *Kernel) CanceledRetained() int {
	n := 0
	for _, sh := range k.shards {
		n += sh.queue.CanceledRetained()
	}
	return n
}
