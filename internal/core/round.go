package core

import (
	"sync/atomic"
	"time"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/trace"
	"github.com/snapml/snap/internal/transport"
)

// roundLink is the network as one node's round sees it.
type roundLink interface {
	// broadcast writes the round's frame to every neighbor and reports
	// how many links took it.
	broadcast(round int, frame []byte) (sent int, err error)
	// gatherStream hands the round's neighbor frames to deliver as they
	// arrive, on the caller's goroutine; deliver returning false stops
	// the stream. Frame ownership passes to deliver.
	gatherStream(round int, deliver func(from int, frame []byte) bool)
	// recycle gives a consumed frame back to the link.
	recycle(frame []byte)
	// unreliable reports whether the medium itself can lose or damage
	// frames. On such a link a failed send or an undecodable frame is
	// counted and tolerated: the neighbor's last view is reused and the
	// round goes on. On a reliable link only a bug can produce either,
	// so the run fails with the error.
	unreliable() bool
}

// tcpLink is a node's real sockets; a gather waits at most timeout for
// stragglers.
type tcpLink struct {
	peer    *transport.Peer
	timeout time.Duration
}

func (l tcpLink) broadcast(round int, frame []byte) (int, error) {
	// Only the round loop sends on the data plane, so the counter delta
	// is exactly this broadcast's successful writes.
	before := l.peer.FramesSent()
	err := l.peer.Broadcast(round, frame)
	return int(l.peer.FramesSent() - before), err
}

func (l tcpLink) gatherStream(round int, deliver func(from int, frame []byte) bool) {
	l.peer.GatherStream(round, l.timeout, deliver)
}

func (l tcpLink) recycle(frame []byte) { transport.RecycleFrame(frame) }
func (l tcpLink) unreliable() bool     { return true }

// simLink is node id's place in the lockstep simulator. Frames alias the
// sender's encode buffer (see Sim.Send), so there is nothing to recycle;
// injected link failures drop frames inside the Sim, and what does
// arrive is intact.
type simLink struct {
	net  *transport.Sim
	id   int
	nbrs []int
}

func (l simLink) broadcast(_ int, frame []byte) (int, error) {
	for sent, j := range l.nbrs {
		if err := l.net.Send(l.id, j, frame); err != nil {
			return sent, err
		}
	}
	return len(l.nbrs), nil
}

func (l simLink) gatherStream(_ int, deliver func(from int, frame []byte) bool) {
	l.net.CollectStream(l.id, deliver)
}

func (l simLink) recycle([]byte)   {}
func (l simLink) unreliable() bool { return false }

// gradJoin is the hand-off between a host that computes the round's
// gradient on another goroutine and the round body, which must wait for
// it before stepping. The host sets running and starts the gradient; the
// worker records finished, clears running and signals done (buffered, so
// the worker never blocks on it).
type gradJoin struct {
	done     chan struct{}
	running  atomic.Bool
	finished time.Time // written before the done signal, read after it
}

// nodeRound is one node's SNAP round, written once for every host: select
// the parameters worth sending, encode and broadcast them, decode and
// ingest the neighbors' frames as they arrive, then apply the EXTRA step.
// The lockstep simulator needs a cluster-wide barrier between sending
// and receiving, so the round comes in those two halves. Where the
// gradient runs is the host's business: the round's ComputeGradient is
// complete — or joinable through grad — by the time receive steps
// (DESIGN.md §14).
type nodeRound struct {
	eng  *Engine
	link roundLink
	met  *roundMetrics
	// logf reports the faults an unreliable link makes the round
	// tolerate; a reliable link's hosts get errors instead and pass nil.
	logf func(format string, args ...any)
	// grad, when set, is joined by receive before the step and anchors
	// the overlap accounting; nil when the host computes the gradient
	// inline.
	grad *gradJoin

	fullFrame   int64 // wire size of a complete parameter frame
	failedSends atomic.Int64

	// enc is the reusable encode buffer: both links are done with the
	// frame before the next round's send rewrites it (Peer.Send writes
	// synchronously; the Sim's receivers run before the next send). dec
	// is the decode target: frames are ingested one at a time, so one
	// Update serves every neighbor. deliver is ingestFrame bound once —
	// a per-round closure would allocate.
	enc     []byte
	dec     codec.Update
	deliver func(from int, frame []byte) bool

	bcastStart time.Time
	in         ingestState
}

// ingestState is what one round's gather callback accumulates.
type ingestState struct {
	round                   int
	err                     error // fatal; stops the stream
	got, overlapped         int   // frames ingested; of those, while the gradient ran
	decSecs, intSecs        float64
	firstDecode, lastDecode time.Time
	lastIngest, gatherEnd   time.Time
}

func newNodeRound(eng *Engine, link roundLink, met *roundMetrics, logf func(string, ...any)) *nodeRound {
	nr := &nodeRound{
		eng: eng, link: link, met: met, logf: logf,
		fullFrame: int64(codec.FullFrameBytes(eng.cfg.Model.NumParams(), eng.cfg.Float32Wire)),
	}
	nr.deliver = nr.ingestFrame
	return nr
}

// now reads the clock only when someone consumes the timings (see
// Engine.timed); otherwise the round runs clock-free on zero times.
func (nr *nodeRound) now() time.Time {
	if !nr.eng.timed() {
		return time.Time{}
	}
	return time.Now()
}

// phase closes the phase that began at start: it goes to the phase's
// histogram and to the tracer together, and its end is returned as the
// next phase's start.
func (nr *nodeRound) phase(round int, which trace.PhaseID, start time.Time) time.Time {
	end := nr.now()
	nr.record(round, which, start, end, end.Sub(start).Seconds())
	return end
}

// record is phase for a window whose busy time is not its length: decode
// and integrate run in slices inside the gather window.
func (nr *nodeRound) record(round int, which trace.PhaseID, start, end time.Time, busy float64) {
	if nr.eng.timed() {
		nr.met.phase[which].Observe(busy)
		nr.eng.cfg.Trace.Phase(round, which, start, end)
	}
}

// send is the first half of the round: BuildUpdate, encode into the
// reusable buffer, broadcast.
func (nr *nodeRound) send(round int) error {
	e, o, id := nr.eng, nr.eng.cfg.Obs, nr.eng.cfg.ID
	t := nr.now()
	u, err := e.BuildUpdate(round)
	if err != nil {
		return err
	}
	t = nr.phase(round, trace.PhaseBuild, t)

	if e.cfg.Float32Wire {
		nr.enc, _, err = codec.EncodeLossyTo(nr.enc, u)
	} else {
		nr.enc, _, err = codec.EncodeTo(nr.enc, u)
	}
	if err != nil {
		return err
	}
	frame := nr.enc
	nr.bcastStart = nr.phase(round, trace.PhaseEncode, t)

	sent, err := nr.link.broadcast(round, frame)
	if err != nil {
		if !nr.link.unreliable() {
			return err
		}
		// A dead link mid-broadcast is a straggler, not a node failure:
		// the receiver reuses our last parameters and the transport
		// reconnects in the background.
		nr.failedSends.Add(1)
		nr.met.sendFailures.Inc()
		if o.LogEnabled() {
			f := obs.GetFields()
			f["kind"] = "send_failure"
			f["error"] = err.Error()
			o.Emit(id, obs.EvFault, round, -1, f)
			obs.PutFields(f)
		}
		nr.logf("node %d: broadcast round %d: %v (continuing; link treated as straggler)", id, round, err)
	}
	nr.phase(round, trace.PhaseBroadcast, nr.bcastStart)
	// A full send would have cost one maximal frame per neighbor
	// actually written to: the ground truth for the aggregator's
	// bytes-saved accounting.
	e.cfg.Trace.Sent(round, sent, int64(sent)*int64(len(frame)), int64(sent)*nr.fullFrame,
		len(u.Indices), u.NumParams)
	if o.LogEnabled() {
		f := obs.GetFields()
		f["bytes"] = len(frame)
		f["selected"] = len(u.Indices)
		o.Emit(id, obs.EvBroadcast, round, -1, f)
		obs.PutFields(f)
	}
	return nil
}

// receive is the second half of the round: ingest what the neighbors
// sent, wait for the host's gradient if it runs elsewhere, and step. A
// pending gradient is joined on the error return too, so the host gets
// the loop back with no worker in flight.
//
// The returned vector is StepMix's: the engine's live iterate, read-only
// and valid until the next receive.
func (nr *nodeRound) receive(round int) (linalg.Vector, error) {
	err := nr.ingest(round)
	if nr.grad != nil {
		<-nr.grad.done // the gradient must be in scratch before StepMix reads it
	}
	if err != nil {
		return nil, err
	}
	if nr.grad != nil {
		nr.observeOverlap(round)
	}
	return nr.eng.StepMix(round), nil
}

// ingest is receive up to, but not including, the step: frames are
// decoded and ingested one by one as the link delivers them. The gather
// phase is the whole stream window; the decode and integrate phases are
// the slices of it spent off the wire. Their windows overlap the gather
// window — that is the pipeline, not a bookkeeping bug (DESIGN.md §14).
func (nr *nodeRound) ingest(round int) error {
	in := &nr.in
	*in = ingestState{round: round}
	start := nr.now()
	nr.link.gatherStream(round, nr.deliver)
	in.gatherEnd = nr.phase(round, trace.PhaseGather, start)
	if in.err != nil {
		return in.err
	}
	if in.got == 0 {
		in.firstDecode, in.lastDecode, in.lastIngest = in.gatherEnd, in.gatherEnd, in.gatherEnd
	}
	nr.record(round, trace.PhaseDecode, in.firstDecode, in.lastDecode, in.decSecs)
	nr.record(round, trace.PhaseIntegrate, in.firstDecode, in.lastIngest, in.intSecs)
	nr.met.streamFrames.Add(int64(in.got))
	if o := nr.eng.cfg.Obs; o.LogEnabled() {
		f := obs.GetFields()
		f["updates"] = in.got
		o.Emit(nr.eng.cfg.ID, obs.EvIntegrate, round, -1, f)
		obs.PutFields(f)
	}
	return nil
}

// ingestFrame is the gather callback: decode one neighbor's frame into
// the shared Update and apply it to that neighbor's view.
func (nr *nodeRound) ingestFrame(from int, frame []byte) bool {
	in := &nr.in
	d0 := nr.now()
	err := codec.DecodeInto(&nr.dec, frame)
	// DecodeInto never aliases the wire bytes, so the frame can go back
	// to the link whether or not it parsed.
	nr.link.recycle(frame)
	if err != nil {
		// Counted and reported on every link; what it does to the round
		// is the link's call (see roundLink.unreliable).
		id, o := nr.eng.cfg.ID, nr.eng.cfg.Obs
		nr.met.corrupt.Inc()
		if o.LogEnabled() {
			f := obs.GetFields()
			f["kind"] = "corrupt_frame"
			f["error"] = err.Error()
			o.Emit(id, obs.EvFault, in.round, from, f)
			obs.PutFields(f)
		}
		if nr.link.unreliable() {
			nr.logf("node %d: dropping corrupt round-%d frame from %d: %v", id, in.round, from, err)
			return true // the sender's last view is reused
		}
		in.err = err
		return false
	}
	d1 := nr.now()
	nr.eng.cfg.Trace.Span(in.round, trace.SpanFrameDecode, d0, d1)
	if in.err = nr.eng.IngestFrame(&nr.dec); in.err != nil {
		return false
	}
	i1 := nr.now()
	in.decSecs += d1.Sub(d0).Seconds()
	in.intSecs += i1.Sub(d1).Seconds()
	if in.got == 0 {
		in.firstDecode = d0
	}
	in.lastDecode, in.lastIngest = d1, i1
	in.got++
	if nr.grad != nil && nr.grad.running.Load() {
		in.overlapped++
	}
	return true
}

// observeOverlap accounts for the comms time the host's concurrent
// gradient hid. The gradient was started before build, so the hidden
// window is [broadcast start, min(gradient end, gather end)]; the stream
// depth is how many frames were ingested while it was still running.
func (nr *nodeRound) observeOverlap(round int) {
	nr.met.streamDepth.Set(float64(nr.in.overlapped))
	if !nr.eng.timed() {
		return
	}
	end := nr.grad.finished
	if nr.in.gatherEnd.Before(end) {
		end = nr.in.gatherEnd
	}
	if end.After(nr.bcastStart) {
		nr.met.overlapSeconds.Observe(end.Sub(nr.bcastStart).Seconds())
		nr.eng.cfg.Trace.Span(round, trace.SpanOverlap, nr.bcastStart, end)
	} else {
		nr.met.overlapSeconds.Observe(0)
	}
}
