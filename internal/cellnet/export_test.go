package cellnet

// MustNew is New for configs known to be valid; it panics on error.
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}
