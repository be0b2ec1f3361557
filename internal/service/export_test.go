package service

// Dir returns the state directory.
func (c *Checkpointer) Dir() string { return c.dir }

// Stats returns how many requests the gate has passed and shed.
func (g *Gate) Stats() (admitted, shed uint64) {
	if g == nil {
		return 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.admitted, g.shed
}
