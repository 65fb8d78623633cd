package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/transport"
)

// The shadow round driver composes the public round primitives the way
// PeerNode.Run and Cluster.Run do, but strictly sequentially and with a
// span around every call into a layer. It exists so that layers can be
// timed from the benchmark's own files; because EXTRA's pipelined round
// is pinned bitwise to the sequential one, its iterates must equal the
// production driver's, which makes every traced pass a correctness check
// on top.

// link is the transport side of one shadow node.
type link struct {
	send     func(round int, frame []byte) error
	gather   func(round int, deliver func(from int, frame []byte) bool)
	recycle  func(frame []byte)
	endRound func(round int, b *spanBuf)
	abort    func() // releases the other nodes when this one fails
}

// shadowCounts are the work counts taken at the span boundaries.
type shadowCounts struct {
	frameBytes int64 // Σ encoded frame length, one per node-round
	selected   int64 // Σ parameters selected for sending
	params     int64 // Σ parameters eligible
	frames     int64 // Σ frames written
	bytes      int64 // Σ bytes written (frame length × receivers)
}

func (c *shadowCounts) add(o shadowCounts) {
	c.frameBytes += o.frameBytes
	c.selected += o.selected
	c.params += o.params
	c.frames += o.frames
	c.bytes += o.bytes
}

// shadowNode runs one node's rounds.
type shadowNode struct {
	eng    *core.Engine
	link   link
	degree int
	sink   *snapSink
	buf    *spanBuf
	enc    []byte
	dec    codec.Update
	counts shadowCounts
}

func (n *shadowNode) run(rounds int) error {
	for round := 0; round < rounds; round++ {
		if err := n.round(round); err != nil {
			n.link.abort()
			return fmt.Errorf("shadow node %d round %d: %w", n.eng.ID(), round, err)
		}
	}
	return nil
}

func (n *shadowNode) round(round int) error {
	b := n.buf
	t0 := time.Now()
	n.eng.BeginIntegrate()
	u, err := n.eng.BuildUpdate(round)
	if err != nil {
		return err
	}
	t1 := time.Now()
	b.add(round, spBuild, spRound, t0, t1)

	n.enc, _, err = codec.EncodeTo(n.enc, u)
	if err != nil {
		return err
	}
	t2 := time.Now()
	b.add(round, spEncode, spRound, t1, t2)
	n.counts.frameBytes += int64(len(n.enc))
	n.counts.selected += int64(len(u.Indices))
	n.counts.params += int64(u.NumParams)

	if err := n.link.send(round, n.enc); err != nil {
		return err
	}
	t3 := time.Now()
	b.add(round, spBroadcast, spRound, t2, t3)
	n.counts.frames += int64(n.degree)
	n.counts.bytes += int64(n.degree * len(n.enc))

	var streamErr error
	n.link.gather(round, func(_ int, frame []byte) bool {
		d0 := time.Now()
		err := codec.DecodeInto(&n.dec, frame)
		n.link.recycle(frame)
		d1 := time.Now()
		b.add(round, spDecode, spGather, d0, d1)
		if err == nil {
			err = n.eng.IngestFrame(&n.dec)
			b.add(round, spIngest, spGather, d1, time.Now())
		}
		streamErr = err
		return err == nil
	})
	if streamErr != nil {
		return streamErr
	}
	t4 := time.Now()
	b.add(round, spGather, spRound, t3, t4)

	n.eng.ComputeGradient(round)
	t5 := time.Now()
	b.add(round, spGradient, spRound, t4, t5)

	x := n.eng.StepMix(round)
	t6 := time.Now()
	b.add(round, spStepMix, spRound, t5, t6)

	n.sink.Publish(round, 0, x)
	n.link.endRound(round, b)
	t7 := time.Now()
	n.eng.LocalLoss() // EvalEvery is 1 at shipped defaults
	t8 := time.Now()
	b.add(round, spLocalLoss, spRound, t7, t8)
	b.add(round, spRound, spNone, t0, t8)
	return nil
}

// spansPerRound bounds one node-round's span count: the fixed phases, a
// decode and an ingest per neighbor, and the simulator's barrier.
func spansPerRound(degree int) int { return 10 + 2*degree }

func (p *problem) engineConfig(in *instance, i int, w *linalg.Matrix) core.EngineConfig {
	return core.EngineConfig{
		ID: i, Model: p.model, Data: in.parts[i], Alpha: p.spec.Alpha,
		WRow: w.Row(i), Neighbors: in.g.Neighbors(i),
		Policy: core.SendSelected, Init: in.init,
	}
}

// shadowRep trains one instance with the shadow driver, recording spans.
func (p *problem) shadowRep(in *instance, rounds int, rec *recorder) (*repRun, shadowCounts, error) {
	n := p.spec.Nodes
	run := &repRun{sinks: make([]*snapSink, n), final: make([][]float64, n)}
	nodes := make([]*shadowNode, n)
	w := in.w
	if w == nil {
		var err error
		if w, err = p.optimizedW(in); err != nil {
			return nil, shadowCounts{}, err
		}
	}
	for i := 0; i < n; i++ {
		eng, err := core.NewEngine(p.engineConfig(in, i, w))
		if err != nil {
			return nil, shadowCounts{}, err
		}
		deg := len(in.g.Neighbors(i))
		run.sinks[i] = newSnapSink(rounds, p.spec.SnapEvery, p.model.NumParams())
		nodes[i] = &shadowNode{eng: eng, degree: deg, sink: run.sinks[i], buf: rec.buf(in.rep, i, rounds*spansPerRound(deg))}
	}
	var closeLinks func()
	var err error
	if p.spec.Transport == "sim" {
		p.simLinks(in, nodes)
	} else if closeLinks, err = p.tcpLinks(in, nodes, rounds); err != nil {
		return nil, shadowCounts{}, err
	}
	if closeLinks != nil {
		defer closeLinks()
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i, node := range nodes {
		node.sink.base = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = node.run(rounds)
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	var counts shadowCounts
	for i, node := range nodes {
		if errs[i] != nil {
			return nil, counts, errs[i]
		}
		run.final[i] = node.eng.Params()
		counts.add(node.counts)
	}
	run.hash = hashSinks(run.sinks)
	return run, counts, nil
}

func (p *problem) tcpLinks(in *instance, nodes []*shadowNode, rounds int) (func(), error) {
	peers := make([]*transport.Peer, len(nodes))
	closeAll := func() {
		for _, peer := range peers {
			if peer != nil {
				peer.Close()
			}
		}
	}
	for i := range nodes {
		peer, err := transport.NewPeer(i, "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		peers[i] = peer
		if fs := delayFaults(in, i, rounds, p.spec.Delay); fs != nil {
			peer.SetFaults(fs)
		}
		nodes[i].link = link{
			send: peer.Broadcast,
			gather: func(round int, deliver func(int, []byte) bool) {
				peer.GatherStream(round, roundTimeout, deliver)
			},
			recycle:  transport.RecycleFrame,
			endRound: func(round int, _ *spanBuf) { peer.ForgetRound(round) },
		}
	}
	err := connectAll(len(nodes), in.g.Neighbors, func(i int) string { return peers[i].Addr() },
		func(i int, addrs map[int]string) error { return peers[i].Connect(addrs, 10*time.Second) })
	if err != nil {
		closeAll()
		return nil, err
	}
	return closeAll, nil
}

// simLinks wires the nodes over a lockstep transport.Sim. Two barriers
// per round stand in for Cluster.Run's phase hand-offs: the wait before
// collecting falls inside the gather span (it is the wait for the
// neighbors' frames), the wait at the end of the round is its own
// round.barrier span. Both are time spent waiting for the other nodes and
// are reported together as transport.gather_wait_us.
func (p *problem) simLinks(in *instance, nodes []*shadowNode) {
	sim := transport.NewSim(in.g, nil)
	sim.BeginRound(0)
	bar := newBarrier(len(nodes))
	for i, node := range nodes {
		nbrs := in.g.Neighbors(i)
		node.link = link{
			send: func(_ int, frame []byte) error {
				for _, j := range nbrs {
					if err := sim.Send(i, j, frame); err != nil {
						return err
					}
				}
				return nil
			},
			gather: func(_ int, deliver func(int, []byte) bool) {
				bar.wait(nil)
				sim.CollectStream(i, deliver)
			},
			recycle: func([]byte) {},
			endRound: func(round int, b *spanBuf) {
				t := time.Now()
				bar.wait(func() { sim.BeginRound(round + 1) })
				b.add(round, spBarrier, spRound, t, time.Now())
			},
		}
	}
}

// barrier is a reusable rendezvous for a fixed party count; the last
// arriver runs action before anyone is released. Once aborted it never
// blocks again.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     int
	aborted bool
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait(action func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return
	}
	b.waiting++
	if b.waiting == b.parties {
		if action != nil {
			action()
		}
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen := b.gen; gen == b.gen && !b.aborted; {
		b.cond.Wait()
	}
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
