// Package lib holds the unreached analyzer's positive and negative
// cases; the callers live in cmd/tool, in the nested module and in
// lib_test.go.
package lib

import "io"

// UsedByCmd is called from cmd/tool.
func UsedByCmd() { usedInPackage() }

// UsedByNested is called only from the nested module.
func UsedByNested() {}

// UsedInPackage is called from this package's own non-test code.
func UsedInPackage() {}

func usedInPackage() { UsedInPackage() }

// OnlyTested is called only from lib_test.go.
func OnlyTested() {} // want `exported function OnlyTested is referenced by no non-test file`

// Recursive calls itself, which is no reference.
func Recursive(n int) int { // want `exported function Recursive`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Allowed is needed by another package's test.
//
//cellqos:allow unreached fixture: the justified escape hatch
func Allowed() {}

// T implements interfaces declared in an imported package (fmt.Stringer,
// io.Closer) and in the module (cmd/tool's visitor).
type T struct{}

// String is reached through fmt.Stringer.
func (T) String() string { return "t" }

// Close is reached through io.Closer.
func (*T) Close() error { return nil }

// Visit is reached through cmd/tool's visitor.
func (T) Visit(depth int) {}

// Write shares io.Writer's method name, not its signature.
func (T) Write(s string) {} // want `exported method T.Write`

// Lonely matches no interface.
func (T) Lonely() {} // want `exported method T.Lonely`

// Bare is called only through an interface declared in a test file,
// which does not count.
func (T) Bare() {} // want `exported method T.Bare`

var _ io.Closer = (*T)(nil)
