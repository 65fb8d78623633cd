package main

import (
	"net"
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

// TestThreeNodeCluster drives the exact code path the CLI uses, with three
// in-process "processes" — the paper's testbed layout.
func TestThreeNodeCluster(t *testing.T) {
	addrs := freePorts(t, 3)
	peers := strings.Join(addrs, ",")

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for id := 0; id < 3; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = run(snap.PeerConfig{ID: id, Alpha: 0.1, Seed: 7, RoundTimeout: 5 * time.Second},
				nodeFlags{Peers: peers, Topology: "complete", Degree: 3, Rounds: 15, Policy: "snap", DataSeed: 8, Samples: 600})
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", id, err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	opts := nodeFlags{Peers: "a:1,b:2", Topology: "complete", Degree: 3, Rounds: 1, Policy: "snap", DataSeed: 2, Samples: 100}
	cases := []struct {
		name string
		id   int
		edit func(*nodeFlags)
	}{
		{"noPeers", 0, func(o *nodeFlags) { o.Peers = "" }},
		{"idOutOfRange", 5, func(*nodeFlags) {}},
		{"badTopology", 0, func(o *nodeFlags) { o.Topology = "mesh" }},
		{"badPolicy", 0, func(o *nodeFlags) { o.Policy = "blast" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := opts
			tc.edit(&o)
			cfg := snap.PeerConfig{ID: tc.id, Alpha: 0.1, Seed: 1, RoundTimeout: time.Second}
			if err := run(cfg, o); err == nil {
				t.Error("invalid flags accepted")
			}
		})
	}
}

// TestElasticCluster drives the -coordinator code path: three in-process
// "snapnode" invocations found a cluster through an in-process
// coordinator, with ids, topology, and weights all coordinator-assigned.
func TestElasticCluster(t *testing.T) {
	coord, err := snap.NewCoordinator(snap.CoordinatorConfig{
		MinMembers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	cfg := snap.PeerConfig{
		ID: -1, Alpha: 0.1, Seed: 7, RoundTimeout: 2 * time.Second,
		ConnectTimeout:  5 * time.Second,
		CoordinatorAddr: coord.Addr(),
		JoinWait:        10 * time.Second,
		ListenAddr:      "127.0.0.1:0",
	}
	opts := nodeFlags{Rounds: 12, Policy: "snap", DataSeed: 8, Samples: 600, Shards: 4}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// id/-peers/-topology are ignored in elastic mode.
			errs[i] = run(cfg, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("elastic node %d: %v", i, err)
		}
	}
	if got := coord.Epoch(); got < 1 {
		t.Errorf("coordinator epoch = %d, want >= 1", got)
	}
}

func TestRunValidationElastic(t *testing.T) {
	cases := []struct {
		name string
		opts nodeFlags
	}{
		{"badPolicyElastic", nodeFlags{Policy: "blast", Shards: 4}},
		{"badShards", nodeFlags{Policy: "snap", Shards: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Rounds, tc.opts.DataSeed, tc.opts.Samples = 1, 2, 100
			cfg := snap.PeerConfig{ID: -1, Alpha: 0.1, Seed: 1, RoundTimeout: time.Second, CoordinatorAddr: "127.0.0.1:1"}
			if err := run(cfg, tc.opts); err == nil {
				t.Error("invalid elastic flags accepted")
			}
		})
	}
}
