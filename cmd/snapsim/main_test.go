package main

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// TestRunCustomGolden pins every -custom scheme's summary at -n 8
// -samples 3000, seed 1: iterations, accuracy, cost, final loss and
// consensus as the command prints them.
func TestRunCustomGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values are amd64's; GOARCH is %s", runtime.GOARCH)
	}
	golden := []struct{ scheme, want string }{
		{"snap", `scheme=snap n=8 degree=3 alpha=0.1 failures=0
iterations=58 converged=true accuracy=0.8978 cost=281976
finalLoss=2.9887 consensus=1.093e-03
`},
		{"snap-0", `scheme=snap-0 n=8 degree=3 alpha=0.1 failures=0
iterations=58 converged=true accuracy=0.8978 cost=286224
finalLoss=2.9882 consensus=8.320e-04
`},
		{"sno", `scheme=sno n=8 degree=3 alpha=0.1 failures=0
iterations=58 converged=true accuracy=0.8978 cost=290928
finalLoss=2.9882 consensus=8.320e-04
`},
		{"ps", `scheme=ps n=8 degree=3 alpha=0.1 failures=0
iterations=57 converged=true accuracy=0.8978 cost=490770
finalLoss=2.9887 consensus=0.000e+00
`},
		{"terngrad", `scheme=terngrad n=8 degree=3 alpha=0.1 failures=0
iterations=500 converged=false accuracy=0.9000 cost=2436000
finalLoss=3.2691 consensus=0.000e+00
`},
		{"dgd", `scheme=dgd n=8 degree=3 alpha=0.1 failures=0
iterations=58 converged=true accuracy=0.8978 cost=290928
finalLoss=2.9224 consensus=4.124e-02
`},
		{"centralized", `scheme=centralized n=8 degree=3 alpha=0.1 failures=0
iterations=57 converged=true accuracy=0.8956 cost=0
finalLoss=2.9889 consensus=0.000e+00
`},
	}
	for _, g := range golden {
		t.Run(g.scheme, func(t *testing.T) {
			var out bytes.Buffer
			if err := runCustom(&out, 8, 3, g.scheme, 3000, 0.1, 0, 1); err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != g.want {
				t.Errorf("got\n%swant\n%s", got, g.want)
			}
		})
	}
}

func TestRunCustomUnknownScheme(t *testing.T) {
	if err := runCustom(io.Discard, 8, 3, "gossip", 3000, 0.1, 0, 1); err == nil {
		t.Error("unknown -scheme accepted")
	}
}
