package service

// Dir returns the state directory.
func (c *Checkpointer) Dir() string { return c.dir }
