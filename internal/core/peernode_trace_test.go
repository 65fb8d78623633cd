package core

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/weights"
)

// runSmallPeerCluster trains a tiny TCP cluster and returns the per-node
// traces. Each node optionally gets its own Observer from mkObs.
func runSmallPeerCluster(t *testing.T, n, rounds int, mkObs func(i int) *obs.Observer) []*metrics.Trace {
	t.Helper()
	_, parts := smallPartitions(t, n, 40, 17)
	g := graph.Complete(n)
	w := weights.Metropolis(g, 0)
	m := model.NewLinearSVM(8)
	init := m.InitParams(5)

	nodes := make([]*PeerNode, n)
	for i := 0; i < n; i++ {
		var o *obs.Observer
		if mkObs != nil {
			o = mkObs(i)
		}
		pn, err := NewPeerNode(PeerNodeConfig{
			Engine: EngineConfig{
				ID: i, Model: m, Data: parts[i], Alpha: 0.1,
				WRow: w.Row(i), Neighbors: g.Neighbors(i),
				Policy: SendChanged, Init: init,
			},
			ListenAddr:   "127.0.0.1:0",
			RoundTimeout: 5 * time.Second,
			Obs:          o,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = pn
		defer pn.Close()
	}
	addrs := make(map[int]string, n)
	for i, pn := range nodes {
		addrs[i] = pn.Addr()
	}
	traces := make([]*metrics.Trace, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, pn := range nodes {
		wg.Add(1)
		go func(i int, pn *PeerNode) {
			defer wg.Done()
			neighbors := make(map[int]string)
			for _, j := range g.Neighbors(i) {
				neighbors[j] = addrs[j]
			}
			if err := pn.Connect(neighbors); err != nil {
				errs[i] = err
				return
			}
			traces[i], errs[i] = pn.Run(rounds)
		}(i, pn)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return traces
}

// TestPeerNodeTraceStats pins two trace invariants of PeerNode.Run:
// Accuracy must be NaN (peer nodes never evaluate a held-out set, and a
// zero would read as a real 0% measurement), and RoundCost must carry
// the real per-round socket bytes so testbed traces account cost as the
// simulator's do.
func TestPeerNodeTraceStats(t *testing.T) {
	traces := runSmallPeerCluster(t, 3, 6, nil)
	for i, tr := range traces {
		if tr.Len() == 0 {
			t.Fatalf("node %d: empty trace", i)
		}
		total := 0.0
		for r, s := range tr.Stats {
			if !math.IsNaN(s.Accuracy) {
				t.Errorf("node %d round %d: Accuracy = %v, want NaN (not evaluated)", i, r, s.Accuracy)
			}
			if s.RoundCost < 0 {
				t.Errorf("node %d round %d: negative RoundCost %v", i, r, s.RoundCost)
			}
			total += s.RoundCost
		}
		if total <= 0 {
			t.Errorf("node %d: total RoundCost %v, want > 0 (real bytes were sent)", i, total)
		}
	}
}

// TestPeerNodeObserverMetrics wires an Observer into every node of a real
// TCP cluster and checks the headline series land in the registry:
// per-link byte counters, the gather-wait histogram, and per-round phase
// timings. Every family, label key and event type the run exports must
// be a declared name constant: dashboards and the trace tooling join
// series across nodes on these strings, so an inline literal that
// drifts from its constant splits one series into two.
func TestPeerNodeObserverMetrics(t *testing.T) {
	regs := make([]*obs.Registry, 3)
	logs := make([]*bytes.Buffer, 3)
	runSmallPeerCluster(t, 3, 6, func(i int) *obs.Observer {
		regs[i], logs[i] = obs.NewRegistry(), new(bytes.Buffer)
		return &obs.Observer{Reg: regs[i], Log: obs.NewEventLog(logs[i])}
	})
	declared := declaredNames(t)
	for i, reg := range regs {
		text := reg.Text()
		for _, want := range []string{
			obs.MLinkBytesSent, obs.MLinkBytesRecv,
			obs.MGatherWait + "_count", obs.MRoundSeconds,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("node %d: exposition missing %q", i, want)
			}
		}
		snap := reg.Snapshot()
		sent, ok := snap[obs.Label(obs.MLinkBytesSent, obs.LPeer, "0")]
		if i != 0 {
			if !ok {
				t.Errorf("node %d: no %s series for peer 0", i, obs.MLinkBytesSent)
			} else if v, _ := sent.(int64); v <= 0 {
				t.Errorf("node %d: bytes sent to peer 0 = %v, want > 0", i, sent)
			}
		}
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
				if fam, _, _ = strings.Cut(fam, " "); !declared[fam] {
					t.Errorf("node %d: metric family %q is not a declared constant", i, fam)
				}
				continue
			}
			_, labels, _ := strings.Cut(line, "{")
			labels, _, _ = strings.Cut(labels, "}")
			for _, pair := range strings.Split(labels, ",") {
				if key, _, _ := strings.Cut(pair, "="); key != "" && key != "le" && !declared[key] {
					t.Errorf("node %d: label key %q in %q is not a declared constant", i, key, line)
				}
			}
		}
		dec := json.NewDecoder(logs[i])
		for {
			var ev obs.Event
			if err := dec.Decode(&ev); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("node %d: event log: %v", i, err)
			}
			if !declared[ev.Type] {
				t.Errorf("node %d: event type %q is not a declared constant", i, ev.Type)
			}
		}
	}
}

// declaredNames returns the values of every exported string constant in
// the obs, serve and trace names.go files and obs/events.go: the metric
// families, label keys, event types and span names the system exports.
func declaredNames(t *testing.T) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range []string{"../obs/names.go", "../obs/events.go", "../serve/names.go", "../trace/names.go"} {
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if i >= len(vs.Values) || !name.IsExported() {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						out[v] = true
					}
				}
			}
		}
	}
	return out
}
