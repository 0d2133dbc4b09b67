// Package fix is the public API of the fixture module that the deadnames
// test runs on: one declaration for each rule.
package fix

import (
	"io"

	"fix/lib"
)

// Open saves the store c describes.
func Open(c lib.Config) error {
	c.Size++
	c.WriteOnly = 1
	return lib.NewStore(c).Save(io.Discard)
}
