package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
)

func postPredict(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHTTPPredict(t *testing.T) {
	g := newTestGateway(t, Config{})
	publishN(g.Feed(), 5, 1, 4, 1)
	h := NewHTTPHandler(g)

	w := postPredict(h, `{"features":[2,0,0,0]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("single predict status %d: %s", w.Code, w.Body)
	}
	var resp predictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Predictions) != 1 || resp.Predictions[0] != 1 {
		t.Fatalf("predictions = %v, want [1]", resp.Predictions)
	}
	if resp.ModelRound != 5 || resp.ModelEpoch != 1 {
		t.Fatalf("version = %d/%d, want 5/1", resp.ModelRound, resp.ModelEpoch)
	}

	w = postPredict(h, `{"instances":[[1,0,0,0],[-1,0,0,0]]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch predict status %d: %s", w.Code, w.Body)
	}
	resp = predictResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Predictions) != 2 || resp.Predictions[0] != 1 || resp.Predictions[1] != 0 {
		t.Fatalf("predictions = %v, want [1 0]", resp.Predictions)
	}
}

// TestHTTPPredictForms sends the same two rows in spellings the scanner
// takes and spellings it leaves to encoding/json; the replies must not
// tell them apart.
func TestHTTPPredictForms(t *testing.T) {
	g := newTestGateway(t, Config{})
	publishN(g.Feed(), 5, 1, 4, 1)
	h := NewHTTPHandler(g)
	want := string(appendPredictResponse(nil, []int{1, 0}, Version{Round: 5, Epoch: 1}))
	for _, body := range []string{
		`{"instances":[[1,0,0,0],[-1,0,0,0]]}`,
		" {\t\"instances\" :\n[ [ 1e0 , 0.0, -0, 0E+5 ] ,\r[-1.0e-0,0,0,0] ] } \n",
		`{"Instances":[[1,0,0,0],[-1,0,0,0]]}`,
		`{"instances":[[1,0,0,0],[-1,0,0,0]],"other":null}`,
		`{"instances":[[9,9,9,9]],"instances":[[1,0,0,0],[-1,0,0,0]]}`,
		`{"\u0069nstances":[[1,0,0,0],[-1,0,0,0]]}`,
		`{"features":null,"instances":[[1,0,0,0],[-1,0,0,0]]}`,
	} {
		w := postPredict(h, body)
		if w.Code != http.StatusOK || w.Body.String() != want {
			t.Errorf("body %q: status %d reply %q, want 200 %q", body, w.Code, w.Body, want)
		}
	}
}

// TestPredictResponseBytes pins the appended 200 body to what
// encoding/json writes for the same predictResponse.
func TestPredictResponseBytes(t *testing.T) {
	for _, resp := range []predictResponse{
		{Predictions: []int{3}, ModelRound: 12, ModelEpoch: 2},
		{Predictions: []int{0, -1, 9, 10}, ModelRound: 0, ModelEpoch: 0},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got := appendPredictResponse(nil, resp.Predictions, Version{Round: resp.ModelRound, Epoch: resp.ModelEpoch})
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appended %q, encoding/json writes %q", got, want.Bytes())
		}
	}
}

func TestHTTPPredictRejects(t *testing.T) {
	g := newTestGateway(t, Config{})
	publishN(g.Feed(), 0, 0, 4, 1)
	h := NewHTTPHandler(g)

	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{"features":`},
		{"not json", `hello`},
		{"empty object", `{}`},
		{"both fields", `{"features":[1,2,3,4],"instances":[[1,2,3,4]]}`},
		{"wrong dim", `{"features":[1,2,3]}`},
		{"wrong dim row", `{"instances":[[1,2,3,4],[1,2]]}`},
		{"overflow literal", `{"features":[1,2,3,1e999]}`},
		{"empty instances", `{"instances":[]}`},
		{"empty row", `{"instances":[[]]}`},
		{"empty features", `{"features":[]}`},
		{"trailing bytes", `{"features":[1,2,3,4]} junk`},
		{"trailing value", `{"features":[1,2,3,4]}{"features":[1,2,3,4]}`},
		{"not a JSON number", `{"features":[1,2,3,+4]}`},
	}
	for _, tc := range cases {
		if w := postPredict(h, tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body)
		}
	}

	// A body past maxBodyBytes is refused by size, whatever it holds.
	w := postPredict(h, `{"features":[1,2,3,4]}`+strings.Repeat(" ", maxBodyBytes))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%s)", w.Code, w.Body)
	}
	var envelope errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
		t.Errorf("oversized body: error envelope %q (%v)", w.Body, err)
	}

	// NaN/Inf cannot be expressed in strict JSON literals, but requestRows
	// must still reject them for direct callers.
	if _, err := requestRows(&predictRequest{Features: []float64{1, 2, 3, math.Inf(1)}}, 4); err == nil {
		t.Error("requestRows accepted +Inf")
	}
	if _, err := requestRows(&predictRequest{Features: []float64{1, 2, 3, math.NaN()}}, 4); err == nil {
		t.Error("requestRows accepted NaN")
	}
}

// TestHTTPPredictOverload pins how POST /v1/predict reports load
// shedding: with the one worker held inside the model and the one queue
// slot taken, a further request is refused at once with 429 and
// Retry-After; the queued request expires and answers 504 without one;
// and once the gateway is closed a request answers 503 with Retry-After.
func TestHTTPPredictOverload(t *testing.T) {
	gm := newGateModel()
	reg := obs.NewRegistry()
	g := newTestGateway(t, Config{
		Model:      gm,
		Workers:    1,
		QueueDepth: 1,
		Deadline:   50 * time.Millisecond,
		Obs:        &obs.Observer{Reg: reg},
	})
	publishN(g.Feed(), 0, 0, 4, 1)
	h := NewHTTPHandler(g)
	const body = `{"features":[1,0,0,0]}`

	held := make(chan *httptest.ResponseRecorder, 1)
	go func() { held <- postPredict(h, body) }()
	gm.awaitEntry(t) // the worker is inside the gated model
	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() { queued <- postPredict(h, body) }()
	waitUntil(t, func() bool { return g.depth.Load() == 1 })

	w := postPredict(h, body)
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") != "1" {
		t.Fatalf("full queue: status %d Retry-After %q, want 429 with Retry-After 1 (%s)", w.Code, w.Header().Get("Retry-After"), w.Body)
	}
	if got := reg.Counter(obs.Label(MServeRejects, LReason, ReasonQueueFull)).Value(); got != 1 {
		t.Fatalf("queue_full rejects = %d, want 1", got)
	}

	w = <-queued
	if w.Code != http.StatusGatewayTimeout || w.Header().Get("Retry-After") != "" {
		t.Fatalf("expired in queue: status %d Retry-After %q, want 504 without Retry-After (%s)", w.Code, w.Header().Get("Retry-After"), w.Body)
	}
	gm.release()
	<-held

	g.Close()
	w = postPredict(h, body)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "1" {
		t.Fatalf("closed gateway: status %d Retry-After %q, want 503 with Retry-After 1 (%s)", w.Code, w.Header().Get("Retry-After"), w.Body)
	}
}

func TestHTTPNoModel(t *testing.T) {
	g := newTestGateway(t, Config{})
	h := NewHTTPHandler(g)
	if w := postPredict(h, `{"features":[1,2,3,4]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("predict without model: status %d, want 503", w.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz without model: status %d, want 503", w.Code)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", w.Code)
	}
}

func TestHTTPModelLifecycle(t *testing.T) {
	m := model.NewLinearSVM(4)
	reg := obs.NewRegistry()
	g := newTestGateway(t, Config{Model: m, Features: 4, Obs: &obs.Observer{Reg: reg}})
	h := NewHTTPHandler(g)

	// Unloaded info.
	req := httptest.NewRequest(http.MethodGet, "/v1/model", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var info modelInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Loaded || info.Model != "linear-svm" || info.Params != 4 {
		t.Fatalf("unloaded info = %+v", info)
	}

	// Hot-load a checkpoint over PUT.
	params := m.InitParams(9)
	var buf bytes.Buffer
	if err := model.SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodPut, "/v1/model?round=12&epoch=3", &buf)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("PUT model: status %d: %s", w.Code, w.Body)
	}

	// readyz flips, predictions flow, info reflects the version.
	req = httptest.NewRequest(http.MethodGet, "/readyz", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("readyz after load: status %d", w.Code)
	}
	if w := postPredict(h, `{"features":[1,0,0,0]}`); w.Code != http.StatusOK {
		t.Fatalf("predict after load: status %d: %s", w.Code, w.Body)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/model", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	info = modelInfo{}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Loaded || info.Round != 12 || info.Epoch != 3 || info.Seq != 1 {
		t.Fatalf("loaded info = %+v, want round 12 epoch 3 seq 1", info)
	}

	// A checkpoint of the wrong dimensionality is refused.
	var bad bytes.Buffer
	if err := model.SaveParams(&bad, linalg.NewVector(7)); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodPut, "/v1/model", &bad)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("PUT wrong-dim checkpoint: status %d, want 400", w.Code)
	}

	// Garbage body is refused.
	req = httptest.NewRequest(http.MethodPut, "/v1/model", strings.NewReader("not a checkpoint"))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("PUT garbage checkpoint: status %d, want 400", w.Code)
	}

	// A current-version (2) header claiming 2^28 params with no payload
	// behind it is refused as a decode failure (model.LoadParams
	// allocates only what arrives).
	huge := binary.BigEndian.AppendUint64(append([]byte("SNAP"), 0, 2), 1<<28)
	req = httptest.NewRequest(http.MethodPut, "/v1/model", bytes.NewReader(huge))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("PUT huge-dim header: status %d, want 400", w.Code)
	}
	if got := reg.Counter(obs.Label(MServeSwapRejects, LReason, ReasonDecode)).Value(); got != 2 {
		t.Fatalf("decode swap rejects = %d, want 2 (garbage + huge-dim header)", got)
	}

	// Bad version query is refused.
	req = httptest.NewRequest(http.MethodPut, "/v1/model?round=abc", strings.NewReader(""))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("PUT bad round query: status %d, want 400", w.Code)
	}
}

func TestHTTPMethods(t *testing.T) {
	g := newTestGateway(t, Config{})
	h := NewHTTPHandler(g)
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/predict"},
		{http.MethodDelete, "/v1/model"},
	} {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, w.Code)
		}
	}
}

func TestParamsHandler(t *testing.T) {
	f := NewFeed()
	h := ParamsHandler(f)

	// Empty feed: not ready.
	req := httptest.NewRequest(http.MethodGet, "/params", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty feed: status %d, want 503", w.Code)
	}

	src := linalg.NewVector(6)
	for i := range src {
		src[i] = float64(i) * 1.5
	}
	f.Publish(42, 2, src)

	// Full fetch round-trips the exact parameters and version headers.
	req = httptest.NewRequest(http.MethodGet, "/params", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("fetch: status %d", w.Code)
	}
	if got := w.Header().Get(HeaderRound); got != "42" {
		t.Fatalf("round header = %q, want 42", got)
	}
	if got := w.Header().Get(HeaderSeq); got != "1" {
		t.Fatalf("seq header = %q, want 1", got)
	}
	got, err := model.LoadParams(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("param %d = %v, want %v", i, got[i], src[i])
		}
	}

	// Matching have-seq probe: 304, no body.
	req = httptest.NewRequest(http.MethodGet, "/params", nil)
	req.Header.Set(HeaderHaveSeq, "1")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotModified {
		t.Fatalf("have-seq probe: status %d, want 304", w.Code)
	}
	if w.Body.Len() != 0 {
		t.Fatalf("304 carried %d body bytes", w.Body.Len())
	}

	// Stale have-seq still downloads.
	f.Publish(43, 2, src)
	req = httptest.NewRequest(http.MethodGet, "/params", nil)
	req.Header.Set(HeaderHaveSeq, "1")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stale have-seq: status %d, want 200", w.Code)
	}

	// POST refused.
	req = httptest.NewRequest(http.MethodPost, "/params", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /params: status %d, want 405", w.Code)
	}
}

// TestFollower exercises the poll loop against a real ParamsHandler: the
// follower must load the first snapshot, skip unchanged polls via 304,
// and pick up later publishes.
func TestFollower(t *testing.T) {
	feed := NewFeed()
	srv := httptest.NewServer(ParamsHandler(feed))
	defer srv.Close()

	g := newTestGateway(t, Config{})
	fw := &Follower{URL: srv.URL, Gateway: g}
	ctx := context.Background()

	// Trainer not ready yet: poll succeeds but loads nothing.
	if err := fw.pollOnce(ctx); err != nil {
		t.Fatalf("poll before publish: %v", err)
	}
	if g.Ready() {
		t.Fatal("gateway loaded from an empty trainer")
	}

	publishN(feed, 10, 1, 4, 2.5)
	if err := fw.pollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	round, epoch, _, ok := g.Feed().Version()
	if !ok || round != 10 || epoch != 1 {
		t.Fatalf("followed version = %d/%d ok=%v, want 10/1", round, epoch, ok)
	}

	// Unchanged: the 304 path must not republish.
	if err := fw.pollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, seq, _ := g.Feed().Version(); seq != 1 {
		t.Fatalf("unchanged poll republished: seq %d, want 1", seq)
	}

	publishN(feed, 20, 1, 4, 3.5)
	if err := fw.pollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if round, _, seq, _ := g.Feed().Version(); round != 20 || seq != 2 {
		t.Fatalf("after second publish: round %d seq %d, want 20/2", round, seq)
	}
}
