// Serving predictions from a live SNAP cluster.
//
// A 3-node TCP cluster trains the paper's credit-default SVM while an
// inference gateway serves predictions from the very same process the
// whole time: node 0 publishes each round's iterate into a ParamFeed,
// and the gateway hot-swaps every published snapshot in atomically —
// requests in flight keep the version they started with, new requests
// see the new round. The example watches held-out accuracy climb while
// training is still running, then takes the final model over the HTTP
// API exactly as an external client would.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/snapml/snap"
)

func main() {
	const nodes, rounds = 3, 60

	// Data and topology: the paper's synthetic credit-default task.
	rng := rand.New(rand.NewSource(4))
	data := snap.SyntheticCredit(snap.CreditConfig{Samples: 6000}, rng)
	train, test := data.Split(0.85, rng)
	parts, err := train.Partition(nodes, rng)
	if err != nil {
		log.Fatal(err)
	}
	topo := snap.CompleteTopology(nodes)

	// The feed is the training→serving handoff: node 0 publishes into
	// it, the gateway reads from it. No file, no copy of the cluster.
	feed := snap.NewParamFeed()
	gw, err := snap.NewGateway(snap.GatewayConfig{
		Model:    snap.NewLinearSVM(data.NumFeature),
		Features: data.NumFeature,
		Feed:     feed,
		MaxBatch: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()

	// Launch the cluster; node 0 carries the feed.
	addrs := make([]string, nodes)
	peers := make([]*snap.PeerNode, nodes)
	for i := range peers {
		cfg := snap.PeerConfig{
			ID: i, Topology: topo, Model: snap.NewLinearSVM(data.NumFeature),
			Data: parts[i], Alpha: 0.1, Seed: 1,
			ListenAddr: "127.0.0.1:0", RoundTimeout: 10 * time.Second,
		}
		if i == 0 {
			cfg.Feed = feed
		}
		pn, err := snap.NewPeerNode(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer pn.Close()
		peers[i] = pn
		addrs[i] = pn.Addr()
	}
	var wg sync.WaitGroup
	for i, pn := range peers {
		neighbors := make(map[int]string)
		for _, j := range topo.Neighbors(i) {
			neighbors[j] = addrs[j]
		}
		wg.Add(1)
		go func(pn *snap.PeerNode, neighbors map[int]string) {
			defer wg.Done()
			if err := pn.Connect(neighbors); err != nil {
				log.Fatal(err)
			}
			if _, err := pn.Run(rounds); err != nil {
				log.Fatal(err)
			}
		}(pn, neighbors)
	}

	// Serve while training: the gateway answers as soon as round 0 is
	// published, and every answer is stamped with the round it used.
	ctx := context.Background()
	labels := make([]int, len(test.Samples))
	rows := make([][]float64, len(test.Samples))
	for i, s := range test.Samples {
		rows[i] = s.X
	}
	lastRound := -1
	for done := false; !done; {
		time.Sleep(2 * time.Millisecond)
		v, err := gw.PredictManyInto(ctx, labels, rows)
		if err == snap.ErrNoModel {
			continue // round 0 not published yet
		} else if err != nil {
			log.Fatal(err)
		}
		if v.Round == lastRound {
			continue
		}
		lastRound = v.Round
		correct := 0
		for i, s := range test.Samples {
			if labels[i] == s.Label {
				correct++
			}
		}
		fmt.Printf("serving model round %2d: held-out accuracy %.4f\n",
			v.Round, float64(correct)/float64(len(test.Samples)))
		done = v.Round >= rounds-1
	}
	wg.Wait()

	// The same model over the wire, as an external client sees it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: snap.GatewayHandler(gw)}
	go srv.Serve(ln)
	defer srv.Close()

	body := fmt.Sprintf(`{"features":[%s]}`, joinFloats(test.Samples[0].X))
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/predict", "application/json",
		bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPOST /v1/predict -> %s\n%s\n", resp.Status, out.String())
}

func joinFloats(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", x)
	}
	return b.String()
}
