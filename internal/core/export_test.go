package core

// Traits returns the resolved policy's traits.
func (e *Engine) Traits() PolicyTraits { return e.traits }
