package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"github.com/snapml/snap/internal/model"
)

// maxBodyBytes bounds request bodies: a predict payload or a checkpoint
// upload beyond this is refused before decoding.
const maxBodyBytes = 16 << 20

// maxInstances bounds rows per predict request, keeping one request from
// monopolizing the batch pipeline.
const maxInstances = 1024

// predictRequest is the POST /v1/predict body. Exactly one of Features
// (single row) or Instances (batch) must be set.
type predictRequest struct {
	Features  []float64   `json:"features,omitempty"`
	Instances [][]float64 `json:"instances,omitempty"`

	one [1][]float64 // requestRows' backing array for a Features request
}

// predictResponse reports labels plus the snapshot version that produced
// them, so clients can correlate predictions with training progress. The
// handler writes it with appendPredictResponse; this type is the wire
// shape that function is tested against.
type predictResponse struct {
	Predictions []int `json:"predictions"`
	ModelRound  int   `json:"model_round"`
	ModelEpoch  int   `json:"model_epoch"`
}

// modelInfo is the GET /v1/model body.
type modelInfo struct {
	Model    string `json:"model"`
	Params   int    `json:"params"`
	Features int    `json:"features"`
	Loaded   bool   `json:"loaded"`
	Round    int    `json:"round"`
	Epoch    int    `json:"epoch"`
	Seq      uint64 `json:"seq"`
}

// errorResponse is the JSON error envelope for every non-2xx status.
type errorResponse struct {
	Error string `json:"error"`
}

// Header names on the /params checkpoint endpoint: the served snapshot's
// version stamps, and the client's cheap change-detection probe.
const (
	HeaderRound   = "X-Snap-Round"
	HeaderEpoch   = "X-Snap-Epoch"
	HeaderSeq     = "X-Snap-Seq"
	HeaderHaveSeq = "X-Snap-Have-Seq"
)

// NewHTTPHandler returns the gateway's public API:
//
//	POST /v1/predict  — predict one row ("features") or many ("instances")
//	GET  /v1/model    — model architecture and served version
//	PUT  /v1/model    — hot-load a model.SaveParams checkpoint body
//	                    (optional ?round= and ?epoch= version stamps)
//	GET  /healthz     — process liveness (always 200)
//	GET  /readyz      — 200 once a model snapshot is loaded, else 503
func NewHTTPHandler(g *Gateway) http.Handler {
	return newHTTPHandler(g, newPacer(g.cfg.Obs))
}

// newHTTPHandler is NewHTTPHandler with predict requests shaped by pace
// (nil: unshaped).
func newHTTPHandler(g *Gateway, pace *pacer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		handlePredict(g, pace, w, r)
	})
	mux.HandleFunc("/v1/model", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			handleModelInfo(g, w)
		case http.MethodPut:
			handleModelLoad(g, w, r)
		default:
			writeError(w, http.StatusMethodNotAllowed, "GET or PUT only")
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !g.Ready() {
			writeError(w, http.StatusServiceUnavailable, ErrNoModel.Error())
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// handlePredict serves POST /v1/predict out of a pooled predictScratch.
// Valid requests pass through pace (nil: unshaped) on their way to g.
func handlePredict(g *Gateway, pace *pacer, w http.ResponseWriter, r *http.Request) {
	sc := predictPool.Get().(*predictScratch)
	if servePredict(g, pace, w, r, sc) {
		putPredictScratch(sc)
	}
}

// servePredict reports whether sc may be reused. When ctx ends first,
// PredictManyInto abandons the request to the worker with its rows still
// pointing into sc, so sc is left to the GC as well.
func servePredict(g *Gateway, pace *pacer, w http.ResponseWriter, r *http.Request, sc *predictScratch) bool {
	var err error
	sc.body, err = readBody(sc.body[:0], http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		}
		return true
	}
	// encoding/json over the same bytes is the reference: it decides
	// whatever the scanner declines, malformed input included.
	if !sc.scan(sc.body) {
		if err := json.Unmarshal(sc.body, &sc.req); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return true
		}
	}
	rows, err := requestRows(&sc.req, g.Features())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return true
	}

	ctx := r.Context()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.Deadline)
		defer cancel()
	}
	if err := pace.admit(ctx, g.cfg.Deadline); err != nil {
		writeGatewayError(w, err)
		return true
	}
	if cap(sc.labels) < len(rows) {
		sc.labels = make([]int, len(rows))
	}
	labels := sc.labels[:len(rows)]
	v, err := g.PredictManyInto(ctx, labels, rows)
	if err != nil {
		writeGatewayError(w, err)
		return ctx.Err() == nil
	}
	sc.out = appendPredictResponse(sc.out[:0], labels, v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.out) // a failed write means the client is gone
	return true
}

// readBody appends r to dst until EOF, growing dst as needed.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// requestRows validates the payload shape: exactly one input form, every
// row of the expected dimensionality, every value finite.
func requestRows(req *predictRequest, features int) ([][]float64, error) {
	var rows [][]float64
	switch {
	case req.Features != nil && req.Instances != nil:
		return nil, errors.New(`set "features" or "instances", not both`)
	case req.Features != nil:
		req.one[0] = req.Features
		rows = req.one[:]
	case req.Instances != nil:
		rows = req.Instances
	default:
		return nil, errors.New(`missing "features" or "instances"`)
	}
	if len(rows) == 0 {
		return nil, errors.New("no rows to predict")
	}
	if len(rows) > maxInstances {
		return nil, fmt.Errorf("%d instances exceeds the limit of %d", len(rows), maxInstances)
	}
	for i, row := range rows {
		if len(row) != features {
			return nil, fmt.Errorf("row %d has %d features, want %d", i, len(row), features)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("row %d feature %d is not finite", i, j)
			}
		}
	}
	return rows, nil
}

func handleModelInfo(g *Gateway, w http.ResponseWriter) {
	round, epoch, seq, ok := g.Feed().Version()
	writeJSON(w, http.StatusOK, modelInfo{
		Model:    g.Model().Name(),
		Params:   g.Model().NumParams(),
		Features: g.Features(),
		Loaded:   ok,
		Round:    round,
		Epoch:    epoch,
		Seq:      seq,
	})
}

func handleModelLoad(g *Gateway, w http.ResponseWriter, r *http.Request) {
	round, err := queryInt(r, "round")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	epoch, err := queryInt(r, "epoch")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := g.LoadCheckpoint(http.MaxBytesReader(w, r.Body, maxBodyBytes), round, epoch); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	_, _, seq, _ := g.Feed().Version()
	writeJSON(w, http.StatusOK, modelInfo{
		Model:    g.Model().Name(),
		Params:   g.Model().NumParams(),
		Features: g.Features(),
		Loaded:   true,
		Round:    round,
		Epoch:    epoch,
		Seq:      seq,
	})
}

func queryInt(r *http.Request, key string) (int, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %q", key, s)
	}
	return v, nil
}

// errStatus maps gateway errors to HTTP statuses; retry reports whether
// a Retry-After header is appropriate.
func errStatus(err error) (status int, retry bool) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, true
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, false
	case errors.Is(err, ErrNoModel), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, true
	default:
		return http.StatusInternalServerError, false
	}
}

// writeGatewayError answers a request the gateway (or the pacer in front
// of it) turned away.
func writeGatewayError(w http.ResponseWriter, err error) {
	status, retry := errStatus(err)
	if retry {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, err.Error())
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// ParamsHandler exposes a feed's current snapshot as a model.SaveParams
// checkpoint stream — the wire format followers poll. Version stamps ride
// in headers; a client that sends its last-seen sequence number in
// X-Snap-Have-Seq gets 304 when nothing changed, so idle polling costs a
// header exchange, not a parameter download.
func ParamsHandler(f *Feed) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		snap := f.Acquire()
		if snap == nil {
			writeError(w, http.StatusServiceUnavailable, ErrNoModel.Error())
			return
		}
		defer snap.Release()
		w.Header().Set(HeaderRound, strconv.Itoa(snap.Round()))
		w.Header().Set(HeaderEpoch, strconv.Itoa(snap.Epoch()))
		w.Header().Set(HeaderSeq, strconv.FormatUint(snap.Seq(), 10))
		if have := r.Header.Get(HeaderHaveSeq); have != "" {
			if seq, err := strconv.ParseUint(have, 10, 64); err == nil && seq == snap.Seq() {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusOK)
			return
		}
		_ = model.SaveParams(w, snap.Params())
	})
}
