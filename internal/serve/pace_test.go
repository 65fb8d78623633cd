package serve

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"github.com/snapml/snap/internal/obs"
)

// TestPacerSchedule drives reserve with a hand-made clock: the burst is
// free, what follows is spaced one interval apart on an absolute
// schedule (a late caller does not push the schedule back), idle time
// earns no more than the burst, and a slot past the limit books nothing.
func TestPacerSchedule(t *testing.T) {
	p := newPacer(nil)
	t0 := time.Now()
	burst := int(predictBurst / predictInterval)
	for i := 0; i < burst; i++ {
		if wait, ok := p.reserve(t0, time.Second); !ok || wait > 0 {
			t.Fatalf("burst request %d: wait %v ok %v, want immediate", i, wait, ok)
		}
	}
	for i := 1; i <= 3; i++ {
		wait, ok := p.reserve(t0, time.Second)
		if want := time.Duration(i-1) * predictInterval; !ok || wait != want {
			t.Fatalf("request %d past the burst: wait %v ok %v, want %v", i, wait, ok, want)
		}
	}
	// The next slot is t0+3 intervals. Showing up half an interval late
	// costs nothing and leaves the slot after it where it was.
	late := t0.Add(3*predictInterval + predictInterval/2)
	if wait, _ := p.reserve(late, time.Second); wait > 0 {
		t.Fatalf("late caller waited %v", wait)
	}
	if wait, _ := p.reserve(late, time.Second); wait != predictInterval/2 {
		t.Fatalf("slot after a late caller: wait %v, want %v", wait, predictInterval/2)
	}

	idle := t0.Add(time.Minute)
	for i := 0; i < burst; i++ {
		if wait, _ := p.reserve(idle, time.Second); wait > 0 {
			t.Fatalf("after idling, burst request %d waited %v", i, wait)
		}
	}
	if wait, _ := p.reserve(idle, time.Second); wait != 0 {
		t.Fatalf("first request past the burst: wait %v, want its slot to be now", wait)
	}
	if wait, _ := p.reserve(idle, time.Second); wait != predictInterval {
		t.Fatalf("idle credit exceeds the burst: wait %v, want %v", wait, predictInterval)
	}

	before := p.next
	if _, ok := p.reserve(idle, predictInterval); ok {
		t.Fatal("a slot beyond the limit was booked")
	}
	if !p.next.Equal(before) {
		t.Fatal("a refused request moved the schedule")
	}
}

// TestPacerConstants pins the relations the constants' comments rely
// on: the credit covers a nap and a millisecond of timer lateness, and
// two saturating connections, each napping at most once per predictNap,
// nap on fewer than one request in twenty.
func TestPacerConstants(t *testing.T) {
	if predictBurst < predictNap+time.Millisecond {
		t.Fatalf("burst %v does not cover a %v nap and 1ms of lateness", predictBurst, predictNap)
	}
	if frac := 2 / (predictRate * predictNap.Seconds()); frac >= 0.05 {
		t.Fatalf("two saturating connections may nap on %.3f of requests, want under 0.05", frac)
	}
}

func TestPacerAdmit(t *testing.T) {
	if err := (*pacer)(nil).admit(context.Background(), 0); err != nil {
		t.Fatalf("nil pacer: %v", err)
	}

	reg := obs.NewRegistry()
	p := newPacer(&obs.Observer{Reg: reg})
	p.next = time.Now().Add(time.Hour)
	err := p.admit(context.Background(), time.Second)
	if status, retry := errStatus(err); !errors.Is(err, ErrOverloaded) || status != http.StatusTooManyRequests || !retry {
		t.Fatalf("slot past the limit: err %v, status %d retry %v, want a 429 with Retry-After", err, status, retry)
	}
	if got := reg.Counter(obs.Label(MServeRejects, LReason, ReasonQueueFull)).Value(); got != 1 {
		t.Fatalf("queue_full rejects = %d, want 1", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.admit(ctx, 2*time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled while waiting: %v", err)
	}
	if got := reg.Counter(MServeShaped).Value(); got != 1 {
		t.Fatalf("shaped = %d, want 1", got)
	}
}

// TestHTTPPredictShaped sends one caller's requests back to back: past
// the burst they are delayed to the rate, and none is refused.
func TestHTTPPredictShaped(t *testing.T) {
	g := newTestGateway(t, Config{})
	publishN(g.Feed(), 1, 0, 4, 1)
	h := NewHTTPHandler(g)

	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		if w := postPredict(h, `{"features":[2,0,0,0]}`); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	burst := int(predictBurst / predictInterval)
	if floor := time.Duration(n-1-burst) * predictInterval; time.Since(start) < floor {
		t.Fatalf("%d requests took %v, under the %v the rate allows", n, time.Since(start), floor)
	}
}
