package analysis

import "testing"

func TestErrcheckCompletionCalls(t *testing.T) {
	RunFixture(t, "testdata/src/errcheck", "repro/cmd/tool", Errcheck)
}
