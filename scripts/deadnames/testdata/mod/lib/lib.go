package lib

import (
	"encoding/gob"
	"io"
)

// Unnamed is an exported constant nothing names.
const Unnamed = 1

// Internal is named only inside this package.
const Internal = 2

// Config is what callers set.
type Config struct {
	Size      int // read by NewStore
	WriteOnly int // written by fix.Open, read by nothing
	Tagged    int `json:"tagged"` // a wire field, written by nothing
	Bench     int // written by the benchmark module only, read by nothing
}

// Store is named only in this package, but NewStore's signature exposes it.
type Store struct {
	size int
	w    wire
}

// wire's exported fields are read by the gob encoder Save calls.
type wire struct {
	Reached int
}

// NewStore builds a store from c.
func NewStore(c Config) *Store {
	return &Store{size: c.Size * Internal}
}

// Save writes the store's wire form.
func (s *Store) Save(w io.Writer) error {
	s.w.Reached = s.size
	return gob.NewEncoder(w).Encode(s.w)
}
