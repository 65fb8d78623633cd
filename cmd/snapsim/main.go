// Command snapsim regenerates the paper's evaluation figures from the
// SNAP reproduction. Each figure is printed as one or more aligned tables
// (or CSV with -csv) whose series match the curves the paper plots.
//
// Usage:
//
//	snapsim -fig 6            # reproduce Fig. 6 at full scale
//	snapsim -fig all -quick   # all figures with reduced workloads
//	snapsim -fig 8 -csv       # machine-readable output
//	snapsim -list             # what each figure contains
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/snapml/snap"
	"github.com/snapml/snap/internal/experiments"
)

var figures = map[string]func(experiments.Options) (*experiments.FigResult, error){
	"2":      experiments.Fig2,
	"4":      experiments.Fig4,
	"5":      experiments.Fig5,
	"6":      experiments.Fig6,
	"7":      experiments.Fig7,
	"8":      experiments.Fig8,
	"9":      experiments.Fig9,
	"frames": experiments.Frames,
}

var descriptions = []string{
	"2: parameter evolution (unchanged fraction, |dx| CDFs) — 3-server MLP",
	"4: testbed accuracy + per-iteration and total cost — 3-server MLP",
	"5: weight-matrix optimization vs scale and degree — SVM simulations",
	"6: iterations to converge vs scale and degree — SVM simulations",
	"7: model accuracy vs scale and degree — SVM simulations",
	"8: total communication cost vs scale and degree — SVM simulations",
	"9: impact of stragglers (unavailable links) — SVM simulations",
	"frames: §IV-C wire-format payload crossover (analytical)",
}

func main() {
	fig := flag.String("fig", "", "figure to reproduce: 2, 4, 5, 6, 7, 8, 9, frames or 'all'")
	quick := flag.Bool("quick", false, "reduced workloads and sweep grids")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	outDir := flag.String("out", "", "also write each table as a CSV file into this directory")
	seed := flag.Int64("seed", 1, "experiment seed (runs are deterministic per seed)")
	list := flag.Bool("list", false, "list available figures")

	custom := flag.Bool("custom", false, "run one custom configuration instead of a figure")
	n := flag.Int("n", 20, "custom: number of edge servers")
	degree := flag.Float64("degree", 3, "custom: average node degree")
	scheme := flag.String("scheme", "snap", "custom: snap, snap-0, sno, ps, terngrad, dgd or centralized")
	samples := flag.Int("samples", 12000, "custom: total credit-dataset samples")
	alpha := flag.Float64("alpha", 0.1, "custom: step size")
	failures := flag.Float64("failures", 0, "custom: per-round link failure probability")
	flag.Parse()

	if *list {
		for _, d := range descriptions {
			fmt.Println("fig", d)
		}
		return
	}
	if *custom {
		if err := runCustom(os.Stdout, *n, *degree, *scheme, *samples, *alpha, *failures, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "snapsim:", err)
			os.Exit(1)
		}
		return
	}
	if *fig == "" {
		fmt.Fprintln(os.Stderr, "snapsim: -fig is required (try -list, or -custom)")
		os.Exit(2)
	}

	// Figure tables can be large; write them through one buffered,
	// error-checked writer so a broken pipe or full disk is reported
	// in the exit status instead of silently truncating the output.
	out := bufio.NewWriter(os.Stdout)

	opt := experiments.Options{Quick: *quick, Seed: *seed}
	var ids []string
	if strings.EqualFold(*fig, "all") {
		ids = []string{"2", "4", "5", "6", "7", "8", "9"}
	} else {
		ids = strings.Split(*fig, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := figures[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "snapsim: unknown figure %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		res, err := run(opt)
		if err != nil {
			out.Flush() // keep already-rendered figures on a partial failure
			fmt.Fprintf(os.Stderr, "snapsim: figure %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			for _, tab := range res.Tables {
				fmt.Fprintf(out, "# %s\n%s\n", tab.Title, tab.CSV())
			}
		} else {
			fmt.Fprint(out, res.Render())
		}
		if *outDir != "" {
			if err := writeCSVs(*outDir, res); err != nil {
				out.Flush()
				fmt.Fprintln(os.Stderr, "snapsim:", err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(out, "# figure %s completed in %v\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "snapsim: writing output:", err)
		os.Exit(1)
	}
}

// writeCSVs saves every table of a figure as <dir>/<figID>_<k>.csv.
func writeCSVs(dir string, res *experiments.FigResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	for k, tab := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", res.ID, k))
		if err := os.WriteFile(path, []byte("# "+tab.Title+"\n"+tab.CSV()), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}

// runCustom trains one configuration and writes its summary rows to w.
func runCustom(w io.Writer, n int, degree float64, scheme string, samples int, alpha, failures float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: samples}, rng)
	train, test := data.Split(0.85, rng)
	parts, err := train.Partition(n, rng)
	if err != nil {
		return err
	}
	topo := snap.RandomTopology(n, degree, seed)
	model := snap.NewLinearSVM(data.NumFeature)
	baseCfg := snap.BaselineConfig{
		Topology: topo, Model: model, Partitions: parts, Test: test,
		Alpha: alpha, MaxIterations: 500, EvalEvery: 100, Seed: seed,
		Convergence: snap.ConvergenceDetector{RelTol: 1e-3, Patience: 3},
	}
	cfg := snap.Config{
		Topology: topo, Model: model, Partitions: parts, Test: test,
		Alpha: alpha, MaxIterations: 500, EvalEvery: 100, Seed: seed,
		Convergence: baseCfg.Convergence,
	}

	var res *snap.Result
	switch scheme {
	case "snap", "snap-0", "sno":
		switch scheme {
		case "snap-0":
			cfg.Policy = snap.SNAP0
		case "sno":
			cfg.Policy = snap.SNO
		}
		cfg.OptimizeWeights, cfg.FailureRate = true, failures
		cfg.Convergence.ConsensusTol = 0.01
		res, err = snap.Train(cfg)
	case "ps":
		res, err = snap.TrainPS(baseCfg)
	case "terngrad":
		baseCfg.Ternary, baseCfg.BatchSize = true, 2
		res, err = snap.TrainPS(baseCfg)
	case "dgd":
		// DGD runs on the simulated SNAP round with Metropolis weights and
		// full parameter frames, so its cost= is the encoded frame bytes
		// the simulator charges.
		cfg.Policy, cfg.DGD = snap.SNO, true
		res, err = snap.Train(cfg)
	case "centralized":
		res, err = snap.TrainCentralized(baseCfg)
	default:
		return fmt.Errorf("unknown scheme %q", scheme)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scheme=%s n=%d degree=%g alpha=%g failures=%g\n", scheme, n, degree, alpha, failures)
	fmt.Fprintf(w, "iterations=%d converged=%v accuracy=%.4f cost=%.0f\n",
		res.Iterations, res.Converged, res.FinalAccuracy, res.TotalCost)
	if stat, ok := res.Trace.Last(); ok {
		fmt.Fprintf(w, "finalLoss=%.4f consensus=%.3e\n", stat.Loss, stat.Consensus)
	}
	return nil
}
