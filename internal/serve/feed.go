package serve

import (
	"sync"
	"sync/atomic"

	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/obs"
)

// Snapshot is one published, immutable model version. The parameter
// vector is owned by the snapshot: Publish copies the source into a
// private buffer, so a snapshot acquired by a serving worker can never
// observe a torn or in-progress write, no matter what the training loop
// does afterwards. Snapshots are reference-counted so the feed can
// recycle parameter buffers (double-buffering in steady state) without
// pulling one out from under a reader.
type Snapshot struct {
	params linalg.Vector // immutable after Publish
	round  int
	epoch  int
	seq    uint64

	feed *Feed
	refs atomic.Int64
}

// Params returns the snapshot's parameter vector. Callers must treat it
// as read-only and must not retain it past Release.
func (s *Snapshot) Params() linalg.Vector { return s.params }

// Round returns the training round the snapshot was taken at.
func (s *Snapshot) Round() int { return s.round }

// Epoch returns the control-plane epoch the snapshot was taken at.
func (s *Snapshot) Epoch() int { return s.epoch }

// Seq returns the feed-local publication sequence number (1, 2, ...).
// Followers use it for cheap change detection.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Release returns the caller's reference. When the last reference drops
// the parameter buffer goes back to the feed's free list. Safe on nil.
func (s *Snapshot) Release() {
	if s == nil {
		return
	}
	if n := s.refs.Add(-1); n == 0 {
		s.feed.recycle(s.params)
	} else if n < 0 {
		panic("serve: Snapshot released more times than acquired")
	}
}

// Feed is the hot-swap point between a model producer (the training
// loop, a checkpoint loader, a follower) and the serving gateway.
// Publish installs a new snapshot atomically; Acquire hands out the
// current one with a reference held, so a swap during a batch never
// frees parameters a worker is still reading.
type Feed struct {
	mu   sync.RWMutex
	cur  *Snapshot // guarded by mu
	seq  uint64    // guarded by mu
	o    *obs.Observer
	node int

	freeMu sync.Mutex
	free   []linalg.Vector // guarded by freeMu
}

// NewFeed returns an empty feed (no model loaded yet).
func NewFeed() *Feed { return &Feed{node: -1} }

// SetObserver wires swap metrics and events; node is the id stamped on
// emitted events (-1 when the feed is not tied to a training node). Call
// before concurrent use.
func (f *Feed) SetObserver(o *obs.Observer, node int) {
	f.mu.Lock()
	f.o = o
	f.node = node
	f.mu.Unlock()
}

// Publish installs a copy of src as the current snapshot, stamped with
// the training round and control-plane epoch it came from. src is only
// read during the call, so the producer may immediately reuse it. Safe
// for concurrent use with Acquire; concurrent publishers serialize.
func (f *Feed) Publish(round, epoch int, src linalg.Vector) {
	buf := f.getBuf(len(src))
	copy(buf, src)
	s := &Snapshot{params: buf, round: round, epoch: epoch, feed: f}
	s.refs.Store(1) // the feed's own holder reference

	f.mu.Lock()
	f.seq++
	s.seq = f.seq
	old := f.cur
	f.cur = s
	o, node := f.o, f.node
	f.mu.Unlock()

	// Drop the holder reference on the displaced snapshot; its buffer is
	// recycled once the last in-flight batch releases it.
	old.Release()

	o.Counter(MServeSwaps).Inc()
	o.Gauge(MServeModelRound).Set(float64(round))
	o.Gauge(MServeModelEpoch).Set(float64(epoch))
	if o.LogEnabled() {
		fields := obs.GetFields()
		fields["seq"] = s.seq
		fields["epoch"] = epoch
		fields["params"] = len(buf)
		o.Emit(node, obs.EvModelSwap, round, -1, fields)
		obs.PutFields(fields)
	}
}

// Acquire returns the current snapshot with a reference held, or nil
// when nothing has been published. Callers must Release it.
func (f *Feed) Acquire() *Snapshot {
	f.mu.RLock()
	s := f.cur
	if s != nil {
		s.refs.Add(1)
	}
	f.mu.RUnlock()
	return s
}

// Loaded reports whether a snapshot has been published.
func (f *Feed) Loaded() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.cur != nil
}

// Version returns the current snapshot's round, epoch, and sequence
// number; ok is false when nothing is loaded.
func (f *Feed) Version() (round, epoch int, seq uint64, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.cur == nil {
		return 0, 0, 0, false
	}
	return f.cur.round, f.cur.epoch, f.cur.seq, true
}

// getBuf takes a recycled buffer of exactly n entries or allocates one.
func (f *Feed) getBuf(n int) linalg.Vector {
	f.freeMu.Lock()
	for i, b := range f.free {
		if len(b) == n {
			last := len(f.free) - 1
			f.free[i] = f.free[last]
			f.free = f.free[:last]
			f.freeMu.Unlock()
			return b
		}
	}
	f.freeMu.Unlock()
	return linalg.NewVector(n)
}

// recycle returns a snapshot buffer to the free list. The list is capped
// at two entries — current plus one in flight covers the steady state —
// so a dimension change (new model shape) can't pin stale buffers.
func (f *Feed) recycle(buf linalg.Vector) {
	f.freeMu.Lock()
	if len(f.free) < 2 {
		f.free = append(f.free, buf)
	}
	f.freeMu.Unlock()
}
