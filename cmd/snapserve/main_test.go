package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap"
)

// freePorts reserves n distinct TCP ports by listening and closing.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// trainCluster trains a real 3-node TCP cluster with a ParamFeed wired
// into node 0 — exactly what snapnode does with -serve-params — and
// returns the feed plus the dataset the cluster trained on.
func trainCluster(t *testing.T, rounds int) (*snap.ParamFeed, *snap.Dataset) {
	t.Helper()
	const n = 3
	addrs := freePorts(t, n)
	topo := snap.CompleteTopology(n)
	rng := rand.New(rand.NewSource(3))
	ds := snap.SyntheticCredit(snap.CreditConfig{Samples: 600}, rng)
	parts, err := ds.Partition(n, rng)
	if err != nil {
		t.Fatal(err)
	}

	feed := snap.NewParamFeed()
	nodes := make([]*snap.PeerNode, n)
	for i := range nodes {
		cfg := snap.PeerConfig{
			ID:           i,
			Topology:     topo,
			Model:        snap.NewLinearSVM(ds.NumFeature),
			Data:         parts[i],
			Alpha:        0.1,
			Seed:         1,
			ListenAddr:   addrs[i],
			RoundTimeout: 5 * time.Second,
		}
		if i == 0 {
			cfg.Feed = feed
		}
		node, err := snap.NewPeerNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i] = node
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, pn := range nodes {
		neighbors := make(map[int]string)
		for _, j := range topo.Neighbors(i) {
			neighbors[j] = addrs[j]
		}
		wg.Add(1)
		go func(i int, pn *snap.PeerNode, neighbors map[int]string) {
			defer wg.Done()
			if errs[i] = pn.Connect(neighbors); errs[i] != nil {
				return
			}
			_, errs[i] = pn.Run(rounds)
		}(i, pn, neighbors)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return feed, ds
}

// startServe runs the snapserve entrypoint in a goroutine and returns
// its bound API address. Shutdown (and error check) happens in cleanup.
func startServe(t *testing.T, o options) (addr string, out *bytes.Buffer) {
	t.Helper()
	o.Listen = "127.0.0.1:0"
	out = &bytes.Buffer{}
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- run(o, out, func(a string) { ready <- a }, stop) }()
	t.Cleanup(func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("snapserve run: %v\noutput:\n%s", err, out.String())
		}
	})
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("snapserve exited before ready: %v\noutput:\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("snapserve never became ready")
	}
	return addr, out
}

// waitReady polls /readyz until the gateway has a model loaded.
func waitReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("gateway never became ready")
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSnapserveSmoke is the end-to-end serving check: a real TCP
// cluster trains an SVM publishing into a ParamFeed, the feed is served
// at /params the way snapnode's observability endpoint does, snapserve
// follows it live, and predictions round-trip over HTTP matching the
// trained model's local output.
func TestSnapserveSmoke(t *testing.T) {
	const rounds = 4
	feed, ds := trainCluster(t, rounds)

	snapshot := feed.Acquire()
	if snapshot == nil {
		t.Fatal("training published nothing into the feed")
	}
	defer snapshot.Release()
	if snapshot.Round() != rounds-1 {
		t.Fatalf("feed holds round %d, want final round %d", snapshot.Round(), rounds-1)
	}

	// Serve /params exactly as snapnode's observability server mounts it.
	mux := http.NewServeMux()
	mux.Handle("/params", snap.ParamsHandler(feed))
	nodeSrv := httptest.NewServer(mux)
	defer nodeSrv.Close()

	addr, out := startServe(t, options{
		ModelName:  "svm",
		Features:   ds.NumFeature,
		Follow:     nodeSrv.URL,
		Poll:       20 * time.Millisecond,
		MaxBatch:   8,
		QueueDepth: 64,
		Workers:    2,
		Deadline:   5 * time.Second,
	})
	waitReady(t, addr)

	// Predictions over HTTP must match the trained model applied locally.
	m := snap.NewLinearSVM(ds.NumFeature)
	params := snapshot.Params()
	for i := 0; i < 10; i++ {
		s := ds.Samples[i]
		body, err := json.Marshal(map[string][]float64{"features": s.X})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, "http://"+addr+"/v1/predict", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict sample %d: status %d body %s", i, resp.StatusCode, data)
		}
		var pr struct {
			Predictions []int `json:"predictions"`
			ModelRound  int   `json:"model_round"`
		}
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatalf("predict sample %d: bad body %s: %v", i, data, err)
		}
		if want := m.PredictInto(params, s.X, nil); len(pr.Predictions) != 1 || pr.Predictions[0] != want {
			t.Fatalf("sample %d: served %v, local model says %d", i, pr.Predictions, want)
		}
		if pr.ModelRound != rounds-1 {
			t.Fatalf("sample %d served by model round %d, want %d", i, pr.ModelRound, rounds-1)
		}
	}

	// Model metadata reflects the followed training state.
	resp, err := http.Get("http://" + addr + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Loaded bool `json:"loaded"`
		Round  int  `json:"round"`
		Params int  `json:"params"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if !info.Loaded || info.Round != rounds-1 || info.Params != len(params) {
		t.Fatalf("model info %+v, want loaded round %d with %d params", info, rounds-1, len(params))
	}

	if !strings.Contains(out.String(), "following") {
		t.Errorf("startup output missing follow banner:\n%s", out.String())
	}
}

// TestSnapserveCheckpoint starts the server from a checkpoint file (no
// training cluster) and checks the stamped version is served.
func TestSnapserveCheckpoint(t *testing.T) {
	m := snap.NewLinearSVM(8)
	params := m.InitParams(11)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.SaveParams(f, params); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	addr, out := startServe(t, options{
		ModelName:  "svm",
		Features:   8,
		Checkpoint: path,
		Round:      7,
		Epoch:      2,
		MaxBatch:   4,
		QueueDepth: 16,
		Workers:    1,
		Deadline:   5 * time.Second,
	})
	waitReady(t, addr)

	x := make([]float64, 8)
	x[0] = 1
	resp, data := postJSON(t, "http://"+addr+"/v1/predict",
		fmt.Sprintf(`{"features":[%g,0,0,0,0,0,0,0]}`, x[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d body %s", resp.StatusCode, data)
	}
	var pr struct {
		Predictions []int `json:"predictions"`
		ModelRound  int   `json:"model_round"`
		ModelEpoch  int   `json:"model_epoch"`
	}
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if want := m.PredictInto(params, x, nil); len(pr.Predictions) != 1 || pr.Predictions[0] != want {
		t.Fatalf("served %v, local model says %d", pr.Predictions, want)
	}
	if pr.ModelRound != 7 || pr.ModelEpoch != 2 {
		t.Fatalf("served version %d/%d, want checkpoint stamp 7/2", pr.ModelRound, pr.ModelEpoch)
	}
	if !strings.Contains(out.String(), "loaded checkpoint") {
		t.Errorf("startup output missing checkpoint banner:\n%s", out.String())
	}
}

// TestSnapserveBuildModel pins the flag-to-architecture mapping and its
// error cases: a bad shape is an error, never a panic.
func TestSnapserveBuildModel(t *testing.T) {
	for _, name := range []string{"svm", "mlp"} {
		m, err := buildModel(options{ModelName: name, Features: 6, Classes: 3, Hidden: 4})
		if err != nil || m == nil {
			t.Errorf("buildModel(%q): %v", name, err)
		}
	}
	for _, o := range []options{
		{ModelName: "resnet", Features: 6},
		{ModelName: "logreg", Features: 6, Classes: 3, Hidden: 4},
		{ModelName: "svm", Features: 0},
		{ModelName: "mlp", Features: 0, Classes: 3, Hidden: 4},
		{ModelName: "mlp", Features: 4, Classes: 10, Hidden: 0},
		{ModelName: "mlp", Features: 4, Classes: 0, Hidden: 30},
	} {
		if _, err := buildModel(o); err == nil {
			t.Errorf("buildModel(%+v) accepted", o)
		}
	}
}
