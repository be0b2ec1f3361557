package unreached_test

import (
	"testing"

	"cellqos/internal/analysis/analysistest"
	"cellqos/internal/analysis/unreached"
)

// TestUnreached loads the fixture module (testdata/go.mod, with a module
// nested in testdata/nested) and checks the findings against its want
// comments: functions only tests call are findings; callers in cmd/, in
// the package itself and in the nested module, interface
// implementations, the allow directive and the test-support package are
// not.
func TestUnreached(t *testing.T) {
	analysistest.RunModule(t, "testdata", unreached.Analyzer)
}
