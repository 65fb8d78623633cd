package experiments

import (
	"fmt"

	"github.com/snapml/snap/internal/metrics"
)

// Fig5 reproduces the weight-matrix-optimization study (paper Fig. 5):
// iterations to convergence for SNAP and SNAP-0 with and without the
// spectral weight-matrix optimization, (a) vs network scale at average
// degree 3, and (b) vs average node degree at 60 servers.
func Fig5(opt Options) (*FigResult, error) {
	tabA, err := fig5Sweep(opt, "Fig 5(a): weight-matrix optimization vs network scale",
		"edge servers", scalePoints(opt), func(n int) (int, float64) { return n, 3 })
	if err != nil {
		return nil, err
	}
	degs := sparseDegrees(opt)
	degInts := make([]int, len(degs))
	for i, d := range degs {
		degInts[i] = int(d)
	}
	tabB, err := fig5Sweep(opt, "Fig 5(b): weight-matrix optimization vs average node degree (60 servers)",
		"average node degree", degInts, func(d int) (int, float64) { return 60, float64(d) })
	if err != nil {
		return nil, err
	}
	return &FigResult{
		ID:     "fig5",
		Tables: []*metrics.Table{tabA, tabB},
		Notes: []string{
			"the optimizer solves paper problem (21) and the SLEM and joint (20) problems by projected subgradient and keeps the best candidate under the rate bound (17); problem (22) is not solved, since its optimum W = I never mixes;",
			"at degree 2 the random graph is nearly a ring, where uniform weights are already optimal — no improvement is expected (the paper observes the same).",
		},
	}, nil
}

// fig5Sweep measures iterations-to-convergence over one sweep axis.
func fig5Sweep(opt Options, title, xlabel string, points []int, topoParams func(int) (int, float64)) (*metrics.Table, error) {
	tab := &metrics.Table{
		Title:  title,
		XLabel: xlabel,
		YLabel: "iterations to converge",
		X:      floatsOf(points),
	}
	series := map[string][]float64{}
	for _, scheme := range []string{"snap", "snap-0"} {
		for _, optimized := range []bool{false, true} {
			series[fig5Name(scheme, optimized)] = make([]float64, len(points))
		}
	}
	for i, p := range points {
		n, deg := topoParams(p)
		w, err := buildSVM(n, opt)
		if err != nil {
			return nil, err
		}
		topo := topologyFor(n, deg, opt)
		for _, scheme := range []string{"snap", "snap-0"} {
			for _, optimized := range []bool{false, true} {
				res, err := schemeRun(scheme, topo, w, opt, optimized, 0)
				if err != nil {
					return nil, fmt.Errorf("experiments: fig5 %s n=%d deg=%g: %w", scheme, n, deg, err)
				}
				series[fig5Name(scheme, optimized)][i] = float64(res.Iterations)
			}
		}
	}
	for _, scheme := range []string{"snap", "snap-0"} {
		for _, optimized := range []bool{true, false} {
			name := fig5Name(scheme, optimized)
			mustAdd(tab, name, series[name])
		}
	}
	return tab, nil
}

func fig5Name(scheme string, optimized bool) string {
	if optimized {
		return scheme + "+wopt"
	}
	return scheme
}
