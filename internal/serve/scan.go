package serve

import (
	"strconv"
	"sync"
	"unsafe"
)

// maxPooledBytes bounds what one predictScratch may keep alive in the
// pool: a request near maxBodyBytes grows its buffers to tens of
// megabytes, and those go back to the GC instead.
const maxPooledBytes = 1 << 20

// predictScratch is everything one POST /v1/predict needs between the
// socket and the gateway — body bytes, decoded rows, labels, reply — kept
// in a pool so a steady stream of requests allocates none of it.
type predictScratch struct {
	body   []byte
	req    predictRequest
	vals   []float64   // row arena: every scanned value, rows back to back
	ends   []int       // ends[i] is where row i ends in vals
	rows   [][]float64 // row headers into vals
	labels []int
	out    []byte
}

var predictPool = sync.Pool{
	New: func() any {
		// vals and rows start non-nil: an empty "features" or "instances"
		// array must decode to an empty slice, not to an absent field.
		return &predictScratch{
			body: make([]byte, 0, 4096),
			vals: make([]float64, 0, 1024),
			rows: make([][]float64, 0, 8),
		}
	},
}

// putPredictScratch repools s unless it grew past maxPooledBytes. The
// request is cleared — a pooled scratch always holds the zero request, so
// a declined scan leaves json.Unmarshal a clean target — which also lets
// go of rows encoding/json allocated.
func putPredictScratch(s *predictScratch) {
	if cap(s.body) > maxPooledBytes || cap(s.vals)*8 > maxPooledBytes {
		return
	}
	s.req = predictRequest{}
	predictPool.Put(s)
}

// scan decodes the two canonical predict bodies — {"features":[n,…]} and
// {"instances":[[n,…],…]}, one key, JSON whitespace anywhere between
// tokens, nothing but whitespace after the closing brace — into s.req,
// with the rows in s.vals. It reports false for every other input, valid
// or not, and the caller then decodes the same bytes with encoding/json:
// the scanner only ever takes a subset of what json.Unmarshal accepts and
// yields the same values for it (FuzzScanPredict), so which of the two
// ran is not observable.
func (s *predictScratch) scan(b []byte) bool {
	s.vals, s.ends = s.vals[:0], s.ends[:0]
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	instances := false
	switch {
	case hasPrefixAt(b, i, `"features"`):
		i += len(`"features"`)
	case hasPrefixAt(b, i, `"instances"`):
		i += len(`"instances"`)
		instances = true
	default:
		return false
	}
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != ':' {
		return false
	}
	i = skipSpace(b, i+1)
	if instances {
		i = s.scanRows(b, i)
	} else {
		i = s.scanRow(b, i)
	}
	if i < 0 {
		return false
	}
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != '}' {
		return false
	}
	if skipSpace(b, i+1) != len(b) {
		return false
	}

	if !instances {
		s.req = predictRequest{Features: s.vals}
		return true
	}
	// Row headers are cut only now: vals may have moved while it grew.
	s.rows = s.rows[:0]
	lo := 0
	for _, hi := range s.ends {
		s.rows = append(s.rows, s.vals[lo:hi:hi])
		lo = hi
	}
	s.req = predictRequest{Instances: s.rows}
	return true
}

// scanRows scans an array of number arrays starting at b[i]. It returns
// the index after the closing bracket, or -1.
func (s *predictScratch) scanRows(b []byte, i int) int {
	if i >= len(b) || b[i] != '[' {
		return -1
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1
	}
	for {
		if i = s.scanRow(b, i); i < 0 {
			return -1
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return -1
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return i + 1
		default:
			return -1
		}
	}
}

// scanRow scans one array of numbers starting at b[i], appending the
// values to s.vals and the row's end to s.ends. It returns the index
// after the closing bracket, or -1.
func (s *predictScratch) scanRow(b []byte, i int) int {
	if i >= len(b) || b[i] != '[' {
		return -1
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		s.ends = append(s.ends, len(s.vals))
		return i + 1
	}
	vals := s.vals // kept in a local across the loop, stored back below
	for {
		j := numberEnd(b, i)
		if j < 0 {
			return -1
		}
		v, ok := smallInt(b[i:j])
		if !ok {
			// ParseFloat is the conversion encoding/json applies to the
			// same literal; a range error (1e999) is a decode error there
			// too.
			var err error
			if v, err = strconv.ParseFloat(bytesAsString(b[i:j]), 64); err != nil {
				return -1
			}
		}
		vals = append(vals, v)
		i = skipSpace(b, j)
		if i >= len(b) {
			return -1
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			s.vals = vals
			s.ends = append(s.ends, len(vals))
			return i + 1
		default:
			return -1
		}
	}
}

// numberEnd returns the index after the JSON number starting at b[i], or
// -1 if none starts there. The grammar is checked here, not left to
// ParseFloat, which also takes "Inf", "0x1p3", "+1", ".5", "1." and
// "1_0" — none of them JSON.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// smallInt converts a literal that numberEnd passed and that is nothing
// but digits, at most 15 of them: an integer below 2^53, which float64
// holds exactly, so this is ParseFloat's answer without the call. Sparse
// rows are mostly "0".
func smallInt(lit []byte) (float64, bool) {
	if len(lit) > 15 {
		return 0, false
	}
	var n uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return float64(n), true
}

func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func hasPrefixAt(b []byte, i int, prefix string) bool {
	if len(b)-i < len(prefix) {
		return false
	}
	for k := 0; k < len(prefix); k++ {
		if b[i+k] != prefix[k] {
			return false
		}
	}
	return true
}

// bytesAsString views b as a string without copying it. Only for a
// callee that reads the string during the call and keeps nothing:
// strconv.ParseFloat qualifies (its errors carry a clone of the input).
func bytesAsString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendPredictResponse appends the 200 body: the bytes json.Encoder
// writes for a predictResponse, trailing newline included.
func appendPredictResponse(dst []byte, labels []int, v Version) []byte {
	dst = append(dst, `{"predictions":[`...)
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(l), 10)
	}
	dst = append(dst, `],"model_round":`...)
	dst = strconv.AppendInt(dst, int64(v.Round), 10)
	dst = append(dst, `,"model_epoch":`...)
	dst = strconv.AppendInt(dst, int64(v.Epoch), 10)
	dst = append(dst, "}\n"...)
	return dst
}
