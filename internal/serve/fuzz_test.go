package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// predictSeeds is the corpus both fuzz targets start from (4-feature
// rows). Append only: the committed seeds are named by their index.
var predictSeeds = []string{
	// Well-formed.
	`{"features":[1,2,3,4]}`,
	`{"instances":[[1,2,3,4],[0,0,0,0]]}`,
	`{"features":[-1.5,2.25e10,-3e-5,0]}`,
	// Malformed: wrong dims, wrong shapes, overflow, junk.
	`{"features":[1,2,3]}`,
	`{"features":[1,2,3,4,5]}`,
	`{"instances":[[1,2,3,4],[1,2]]}`,
	`{"features":[1,2,3,1e999]}`,
	`{"features":[1,2,3,null]}`,
	`{"features":"not an array"}`,
	`{"instances":[[1,2,3,4]],"features":[1,2,3,4]}`,
	`{}`,
	`[]`,
	`null`,
	``,
	`{"features":[`,
	"\x00\x01\x02",
	`{"unknown":true}`,
	// Trailing bytes after the value.
	`{"features":[1,2,3,4]} junk`,
	`{"features":[1,2,3,4]}{}`,
	// Number grammar: exponents, signs, leading zeros, -0, range.
	`{"features":[1e5,1E-5,1e+5,-1.5e0]}`,
	`{"features":[+1,2,3,4]}`,
	`{"features":[01,2,3,4]}`,
	`{"features":[-0,0.0,-0.0,0e0]}`,
	`{"features":[1e400,-1e400,2,3]}`,
	`{"features":[1e-400,-1e-400,2,3]}`,
	`{"features":[.5,1.,0x1p3,Inf]}`,
	`{"features":[1_0,2,3,-]}`,
	`{"features":[1.5e,2,3,4]}`,
	`{"features":[0.1234567890123456789012345678901234567890,2,3,4]}`,
	// Whitespace, empty arrays, duplicate and foreign keys.
	" {\n\"features\"\t: [ 1 ,2,\r3 , 4 ] } \n",
	`{"features":[1,2,3,4,]}`,
	`{"features":[]}`,
	`{"instances":[]}`,
	`{"instances":[[]]}`,
	`{"instances":[[1,2,3,4],]}`,
	`{"features":[1,2,3,4],"features":[4,3,2,1]}`,
	`{"Features":[1,2,3,4]}`,
	`{"features":[1,2,3,4],"x":1}`,
}

// FuzzPredictRequest throws arbitrary bytes at POST /v1/predict. The
// invariants: the handler never panics, never reports a 5xx for a
// malformed payload (the gateway is loaded, so the only valid statuses
// are 200 for a well-formed request and 4xx for a bad one), and every
// 200 carries a well-formed response with one label per input row.
func FuzzPredictRequest(f *testing.F) {
	for _, seed := range predictSeeds {
		f.Add(seed)
	}

	m := &signModel{params: 4}
	g, err := NewGateway(Config{Model: m, Features: 4})
	if err != nil {
		f.Fatal(err)
	}
	defer g.Close()
	publishN(g.Feed(), 1, 0, 4, 1)
	h := NewHTTPHandler(g)

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req) // must not panic
		switch {
		case w.Code == http.StatusOK:
			var resp predictResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with undecodable body %q: %v", w.Body, err)
			}
			if len(resp.Predictions) == 0 {
				t.Fatalf("200 with no predictions for body %q", body)
			}
		case w.Code >= 400 && w.Code < 500:
			var resp errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%d with undecodable error body %q: %v", w.Code, w.Body, err)
			}
			if resp.Error == "" {
				t.Fatalf("%d with empty error message for body %q", w.Code, body)
			}
		default:
			t.Fatalf("status %d for body %q (want 200 or 4xx)", w.Code, body)
		}
	})
}

// FuzzScanPredict holds the body scanner to its reference: whatever it
// accepts, json.Unmarshal accepts too and decodes to the same form, row
// shape and float bits. Declining is always allowed (TestScanPredict
// pins what must be taken).
func FuzzScanPredict(f *testing.F) {
	for _, seed := range predictSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		sc := predictPool.Get().(*predictScratch)
		defer putPredictScratch(sc)
		if !sc.scan([]byte(body)) {
			return
		}
		var want predictRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("scanner accepted %q, json.Unmarshal rejects it: %v", body, err)
		}
		got := &sc.req
		if (got.Features == nil) != (want.Features == nil) || (got.Instances == nil) != (want.Instances == nil) {
			t.Fatalf("body %q: scanned %+v, json.Unmarshal %+v", body, got, want)
		}
		sameRow := func(got, want []float64) {
			if len(got) != len(want) {
				t.Fatalf("body %q: scanned a row of %d, json.Unmarshal of %d", body, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("body %q: value %d scanned as %v, json.Unmarshal %v", body, i, got[i], want[i])
				}
			}
		}
		sameRow(got.Features, want.Features)
		if len(got.Instances) != len(want.Instances) {
			t.Fatalf("body %q: scanned %d rows, json.Unmarshal %d", body, len(got.Instances), len(want.Instances))
		}
		for i := range got.Instances {
			sameRow(got.Instances[i], want.Instances[i])
		}
	})
}

// TestScanPredict pins which side of the scanner's line a body falls on.
func TestScanPredict(t *testing.T) {
	for _, tc := range []struct {
		body string
		take bool
	}{
		{`{"features":[1,2,3,4]}`, true},
		{`{"features":[-0,1.5e-3,2E+2,0.25]}`, true},
		{`{"features":[]}`, true},
		{`{"instances":[[1,2],[3,4]]}`, true},
		{`{"instances":[[],[1]]}`, true},
		{`{"instances":[]}`, true},
		{" \t\r\n{ \"features\" : [ 1 , 2 ] } \n", true},
		{`{"features":[1e999]}`, false},
		{`{"features":[Inf]}`, false},
		{`{"features":[0x1p3]}`, false},
		{`{"features":[+1]}`, false},
		{`{"features":[.5]}`, false},
		{`{"features":[1.]}`, false},
		{`{"features":[01]}`, false},
		{`{"features":[1_0]}`, false},
		{`{"features":[null]}`, false},
		{`{"features":null}`, false},
		{`{"features":[[1]]}`, false},
		{`{"instances":[1]}`, false},
		{`{"Features":[1]}`, false},
		{`{"\u0066eatures":[1]}`, false},
		{`{"features":[1],"features":[2]}`, false},
		{`{"features":[1],"x":0}`, false},
		{`{"features":[1]} x`, false},
		{`{"features":[1]`, false},
		{`{}`, false},
		{``, false},
	} {
		var sc predictScratch
		if got := sc.scan([]byte(tc.body)); got != tc.take {
			t.Errorf("scan(%q) = %v, want %v", tc.body, got, tc.take)
		}
	}
}
