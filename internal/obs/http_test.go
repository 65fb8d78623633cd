package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label(MLinkBytesSent, "peer", "3")).Add(1234)

	srv := httptest.NewServer(NewHandler(ServeConfig{Node: 0, Reg: r, PprofEnabled: true}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if want := `snap_link_bytes_sent_total{peer="3"} 1234`; !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing %q:\n%s", want, body)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(7)
	r.Gauge("g").Set(2.5)
	r.Histogram("h_seconds", []float64{1}).Observe(0.25)
	log := NewEventLog(io.Discard)
	log.Emit(4, EvLinkDown, -1, 2, nil)

	srv := httptest.NewServer(NewHandler(ServeConfig{Node: 4, Reg: r, Log: log, PprofEnabled: true}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var snap struct {
		Node          int            `json:"node"`
		EventsEmitted int64          `json:"events_emitted"`
		Metrics       map[string]any `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Node != 4 {
		t.Errorf("node = %d, want 4", snap.Node)
	}
	if snap.EventsEmitted != 1 {
		t.Errorf("events_emitted = %d, want 1", snap.EventsEmitted)
	}
	if got := snap.Metrics["c_total"]; got != float64(7) {
		t.Errorf("c_total = %v, want 7", got)
	}
	if got := snap.Metrics["g"]; got != 2.5 {
		t.Errorf("g = %v, want 2.5", got)
	}
	hist, ok := snap.Metrics["h_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("h_seconds = %#v, want histogram object", snap.Metrics["h_seconds"])
	}
	if got := hist["count"]; got != float64(1) {
		t.Errorf("histogram count = %v, want 1", got)
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(ServeConfig{Node: 0, Reg: NewRegistry(), PprofEnabled: true}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/goroutine status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof goroutine dump looks empty")
	}
}

// TestPprofOptOut: a ServeConfig without PprofEnabled must not mount the
// profiler (heap dumps leak memory contents; see README, "Securing the
// metrics address") while /metrics keeps working.
func TestPprofOptOut(t *testing.T) {
	srv := httptest.NewServer(NewHandler(ServeConfig{Node: 0, Reg: NewRegistry()}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/debug/pprof with PprofEnabled=false: status %d, want 404", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/metrics status %d with pprof disabled", resp.StatusCode)
	}
}

// TestTraceEndpointMount: ServeConfig.Trace is mounted at /trace; absent,
// the path 404s.
func TestTraceEndpointMount(t *testing.T) {
	marker := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "trace-handler")
	})
	srv := httptest.NewServer(NewHandler(ServeConfig{Reg: NewRegistry(), Trace: marker}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "trace-handler" {
		t.Errorf("/trace: status %d body %q", resp.StatusCode, body)
	}

	bare := httptest.NewServer(NewHandler(ServeConfig{Reg: NewRegistry()}))
	defer bare.Close()
	resp, err = bare.Client().Get(bare.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/trace without a handler: status %d, want 404", resp.StatusCode)
	}
}

func TestEventLogJSONL(t *testing.T) {
	var sb strings.Builder
	log := NewEventLog(&sb)
	log.now = func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }
	log.Emit(1, EvLinkDown, -1, 0, nil)
	log.Emit(1, EvRoundEnd, 7, -1, map[string]any{"seconds": 0.25, "loss": 1.5})

	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	const want0 = `{"t":"2026-01-02T03:04:05Z","node":1,"type":"link_down","round":-1,"peer":0}`
	if lines[0] != want0 {
		t.Errorf("line 0 = %s\nwant     %s", lines[0], want0)
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != EvRoundEnd || ev.Round != 7 || ev.F["loss"] != 1.5 {
		t.Errorf("round_end event mismatch: %+v", ev)
	}
	if log.Emitted() != 2 || log.Errors() != 0 {
		t.Errorf("emitted=%d errors=%d", log.Emitted(), log.Errors())
	}
}
