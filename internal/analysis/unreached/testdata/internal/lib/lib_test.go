package lib

import (
	"testing"

	"fix/internal/testsupport"
)

type barer interface{ Bare() }

func TestCalls(t *testing.T) {
	OnlyTested()
	Allowed()
	testsupport.Helper()
	var b barer = T{}
	b.Bare()
	T{}.Lonely()
	T{}.Write("")
	_ = Recursive(1)
}
