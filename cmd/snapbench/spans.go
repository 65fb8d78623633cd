package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// spanKind names a layer boundary the benchmark times from outside.
type spanKind uint8

const (
	spNone spanKind = iota
	spRound
	spBuild
	spEncode
	spBroadcast
	spGather
	spDecode
	spIngest
	spGradient
	spStepMix
	spLocalLoss
	spBarrier
	spNet
	spHTTP
	spGateway
	spModel
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spNone:      "",
	spRound:     "round",
	spBuild:     "core.build_update",
	spEncode:    "codec.encode",
	spBroadcast: "transport.broadcast",
	spGather:    "transport.gather",
	spDecode:    "codec.decode",
	spIngest:    "core.ingest",
	spGradient:  "core.gradient",
	spStepMix:   "core.step_mix",
	spLocalLoss: "core.local_loss",
	spBarrier:   "round.barrier",
	spNet:       "serve.net",
	spHTTP:      "serve.http",
	spGateway:   "serve.queue", // the gateway's entry point: admission queue, coalescing wait, dispatch
	spModel:     "serve.model",
}

// span is one timed call. For training spans (rep, node, round) identify
// the node-round all its spans share; for serving spans node is the
// client and round the request index.
type span struct {
	rep, node, round int32
	kind, parent     spanKind
	start, end       int64 // ns since the recorder's epoch
}

// spanBuf is one goroutine's preallocated span storage.
type spanBuf struct {
	epoch time.Time
	rep   int32
	node  int32
	spans []span
}

func (b *spanBuf) add(round int, kind, parent spanKind, start, end time.Time) {
	b.spans = append(b.spans, span{
		rep: b.rep, node: b.node, round: int32(round), kind: kind, parent: parent,
		start: int64(start.Sub(b.epoch)), end: int64(end.Sub(b.epoch)),
	})
}

// recorder hands out per-goroutine buffers and merges them afterwards.
type recorder struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// buf must be called before the goroutines it serves start.
func (r *recorder) buf(rep, node, capacity int) *spanBuf {
	b := &spanBuf{epoch: r.epoch, rep: int32(rep), node: int32(node), spans: make([]span, 0, capacity)}
	r.bufs = append(r.bufs, b)
	return b
}

func (r *recorder) all() []span {
	var out []span
	for _, b := range r.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name    string
	count   int
	totalUS float64 // training spans: Σ duration; serving spans: median duration
	selfUS  float64
}

// selfTimes builds the self-time table. Training spans nest in time, so a
// kind's self time is its total minus the total of the spans naming it as
// parent (every child lies inside exactly one parent span of its
// node-round, so the aggregate equals the per-span subtraction). The four
// serving levels are timed one after another, not nested, so a level's
// self time is its median minus the median of the level it calls.
func selfTimes(spans []span) (training, serving []selfRow) {
	var total, child [numSpanKinds]float64
	var count [numSpanKinds]int
	var durs [numSpanKinds][]float64
	for _, s := range spans {
		d := float64(s.end-s.start) / 1e3
		total[s.kind] += d
		count[s.kind]++
		child[s.parent] += d
		if s.kind >= spNet {
			durs[s.kind] = append(durs[s.kind], d)
		}
	}
	for k := spRound; k < spNet; k++ {
		if count[k] > 0 {
			training = append(training, selfRow{name: spanNames[k], count: count[k], totalUS: total[k], selfUS: total[k] - child[k]})
		}
	}
	for k := spNet; k < numSpanKinds; k++ {
		if count[k] == 0 {
			continue
		}
		row := selfRow{name: spanNames[k], count: count[k], totalUS: median(durs[k])}
		row.selfUS = row.totalUS
		if k+1 < numSpanKinds && count[k+1] > 0 {
			row.selfUS -= median(durs[k+1])
		}
		serving = append(serving, row)
	}
	return training, serving
}

func formatSelfTimes(training, serving []selfRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %10s %14s %14s %12s\n", "span", "count", "total_us", "self_us", "self_us/span")
	for _, r := range training {
		fmt.Fprintf(&sb, "%-22s %10d %14.1f %14.1f %12.3f\n", r.name, r.count, r.totalUS, r.selfUS, r.selfUS/float64(r.count))
	}
	fmt.Fprintf(&sb, "\n%-22s %10s %14s %14s\n", "serving level", "count", "median_us", "self_us")
	for _, r := range serving {
		fmt.Fprintf(&sb, "%-22s %10d %14.1f %14.1f\n", r.name, r.count, r.totalUS, r.selfUS)
	}
	return sb.String()
}

// writeTrace stores the spans as JSON lines plus the self-time table.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"workload":%q,"rep":%d,"node":%d,"round":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%q}`+"\n",
			workload, s.rep, s.node, s.round, spanNames[s.kind], s.start, s.end, spanNames[s.parent])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".selftime.txt"), []byte(formatSelfTimes(selfTimes(spans))), 0o644)
}
