// Package codec implements SNAP's two parameter-update wire formats
// (paper §IV-C, Fig. 3) and the rule for choosing between them.
//
// A SNAP update carries the subset of a node's N parameters that changed
// enough to be worth sending; the M withheld parameters are *not* encoded
// and the receiver keeps using its last received values. Two frame layouts
// are defined, sized exactly as the paper counts them (4-byte integers,
// 8-byte doubles):
//
//	format 1 (unchanged-list): count of unchanged params + their indices,
//	  then the N−M updated values in index order → 4 + 4M + 8(N−M)
//	  = 4 + 8N − 4M bytes.
//	format 2 (index-value pairs): each updated parameter as index+value
//	  → 12(N−M) bytes.
//
// Format 1 is smaller iff N > 2M+1, which is exactly ChooseFormat's rule.
//
// The actual byte encodings add a fixed 13-byte header (format tag, sender,
// epoch, N) for framing and sanity checks; PayloadBytes reports the
// paper-accounted size, HeaderBytes the constant overhead.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Format identifies a frame layout.
type Format uint8

const (
	// FormatUnchangedList is the paper's first frame type: the indices of
	// the *unchanged* parameters, then all updated values in order.
	FormatUnchangedList Format = 1
	// FormatIndexValue is the paper's second frame type: (index, value)
	// pairs for every updated parameter.
	FormatIndexValue Format = 2
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatUnchangedList:
		return "unchanged-list"
	case FormatIndexValue:
		return "index-value"
	case FormatUnchangedList32:
		return "unchanged-list-f32"
	case FormatIndexValue32:
		return "index-value-f32"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// HeaderBytes is the constant framing overhead of the concrete encoding
// (1 format tag + 4 sender + 4 epoch + 4 N). The paper's cost formulas
// exclude it; metrics may count it separately.
const HeaderBytes = 13

// Update is one node's selective parameter transmission for a round.
type Update struct {
	Sender int
	// Epoch is the id of the cluster epoch the sender was in when it
	// built the update (0 in a static cluster). The round is not here:
	// the transport header and the lockstep simulator carry it.
	Epoch     int
	NumParams int       // N: total parameters in the model
	Indices   []int     // strictly increasing indices of updated parameters
	Values    []float64 // Values[i] is the new value of parameter Indices[i]
}

// Validate checks structural invariants: matching lengths, indices sorted,
// unique and in [0, NumParams).
func (u *Update) Validate() error {
	if u.NumParams < 0 {
		return fmt.Errorf("codec: negative NumParams %d", u.NumParams)
	}
	if len(u.Indices) != len(u.Values) {
		return fmt.Errorf("codec: %d indices but %d values", len(u.Indices), len(u.Values))
	}
	prev := -1
	for _, idx := range u.Indices {
		if idx <= prev {
			return fmt.Errorf("codec: indices not strictly increasing at %d", idx)
		}
		if idx >= u.NumParams {
			return fmt.Errorf("codec: index %d out of range [0,%d)", idx, u.NumParams)
		}
		prev = idx
	}
	return nil
}

// NumWithheld returns M, the count of parameters not in this update.
func (u *Update) NumWithheld() int { return u.NumParams - len(u.Indices) }

// ChooseFormat returns the cheaper frame layout for n total parameters of
// which m are withheld: format 1 iff n > 2m+1 (paper §IV-C).
func ChooseFormat(n, m int) Format {
	if n > 2*m+1 {
		return FormatUnchangedList
	}
	return FormatIndexValue
}

// FullFrameBytes returns the size of a full-parameter-send frame for a
// model of numParams parameters — the baseline the paper's communication
// savings are measured against, and the ground truth for the tracer's
// bytes-saved accounting. A full send withholds nothing (m = 0) and the
// chooser always picks the same layout it would pick for a real full
// send, so the figure matches what BuildUpdate+EncodeTo would emit.
func FullFrameBytes(numParams int, lossy bool) int {
	f := ChooseFormat(numParams, 0)
	if lossy {
		f = ChooseFormat32(numParams, 0)
	}
	return HeaderBytes + PayloadBytes(numParams, 0, f)
}

// PayloadBytes returns the paper-accounted frame size for n total
// parameters, m withheld, in the given format: 4+8n−4m for format 1,
// 12(n−m) for format 2.
func PayloadBytes(n, m int, f Format) int {
	switch f {
	case FormatUnchangedList:
		return 4 + 8*n - 4*m
	case FormatIndexValue:
		return 12 * (n - m)
	case FormatUnchangedList32:
		return 4 + 4*n
	case FormatIndexValue32:
		return 8 * (n - m)
	default:
		panic(fmt.Sprintf("codec: unknown format %d", f))
	}
}

// EncodeTo serializes u in the cheaper of the two formats and returns the
// frame plus the chosen format. The frame is HeaderBytes + PayloadBytes
// long and is appended to buf[:0] (reusing its capacity; buf may be nil).
// The returned slice aliases buf when the capacity sufficed, so the caller
// owns exactly one buffer — the returned one — and must not reuse it
// while the frame is still referenced by a transport.
func EncodeTo(buf []byte, u *Update) ([]byte, Format, error) {
	if err := u.Validate(); err != nil {
		return nil, 0, err
	}
	f := ChooseFormat(u.NumParams, u.NumWithheld())
	out, err := EncodeAsTo(buf, u, f)
	return out, f, err
}

// EncodeAsTo serializes u using a specific format into buf (see EncodeTo
// for the ownership rule; EncodeTo picks the cheaper format itself).
func EncodeAsTo(buf []byte, u *Update, f Format) ([]byte, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	n, m := u.NumParams, u.NumWithheld()
	buf = growFrame(buf, HeaderBytes+PayloadBytes(n, m, f))
	buf = append(buf[:0], byte(f))
	buf = binary.BigEndian.AppendUint32(buf, uint32(u.Sender))
	buf = binary.BigEndian.AppendUint32(buf, uint32(u.Epoch))
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))

	switch f {
	case FormatUnchangedList:
		buf = binary.BigEndian.AppendUint32(buf, uint32(m))
		// Emit the complement of u.Indices in increasing order.
		next := 0 // cursor into u.Indices
		for idx := 0; idx < n; idx++ {
			if next < len(u.Indices) && u.Indices[next] == idx {
				next++
				continue
			}
			buf = binary.BigEndian.AppendUint32(buf, uint32(idx))
		}
		for _, v := range u.Values {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	case FormatIndexValue:
		for i, idx := range u.Indices {
			buf = binary.BigEndian.AppendUint32(buf, uint32(idx))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(u.Values[i]))
		}
	default:
		return nil, fmt.Errorf("codec: unknown format %d", f)
	}
	return buf, nil
}

// DecodeInto parses a frame produced by EncodeTo, EncodeAsTo or
// EncodeLossyTo into a caller-owned Update: u's Indices/Values slices are
// reused via append(s[:0], ...) so a warm Update decodes without
// allocating. All scalar fields of u are overwritten. The
// decoded slices never alias frame; the frame may be recycled as soon
// as DecodeInto returns.
//
// DecodeInto is stricter than the wire format strictly requires: the
// unchanged-index list of formats 1 and 3 must be strictly increasing
// (which the encoders always produce), so the complement can be emitted with
// a single cursor walk instead of a per-frame set.
func DecodeInto(u *Update, frame []byte) error {
	if len(frame) < HeaderBytes {
		return fmt.Errorf("codec: frame too short (%d bytes)", len(frame))
	}
	f := Format(frame[0])
	u.Sender = int(binary.BigEndian.Uint32(frame[1:5]))
	u.Epoch = int(binary.BigEndian.Uint32(frame[5:9]))
	u.NumParams = int(binary.BigEndian.Uint32(frame[9:13]))
	u.Indices = u.Indices[:0]
	u.Values = u.Values[:0]
	body := frame[HeaderBytes:]

	switch f {
	case FormatUnchangedList:
		if len(body) < 4 {
			return fmt.Errorf("codec: truncated unchanged-list frame")
		}
		m := int(binary.BigEndian.Uint32(body[:4]))
		if m > u.NumParams {
			return fmt.Errorf("codec: unchanged count %d exceeds N=%d", m, u.NumParams)
		}
		body = body[4:]
		want := 4*m + 8*(u.NumParams-m)
		if len(body) != want {
			return fmt.Errorf("codec: unchanged-list body is %d bytes, want %d", len(body), want)
		}
		u.grow(u.NumParams - m)
		if err := complementInto(u, body[:4*m], m); err != nil {
			return err
		}
		body = body[4*m:]
		for i := 0; i < u.NumParams-m; i++ {
			u.Values = append(u.Values, math.Float64frombits(binary.BigEndian.Uint64(body[8*i:8*i+8])))
		}
	case FormatUnchangedList32, FormatIndexValue32:
		if err := decode32(f, u, body); err != nil {
			return err
		}
	case FormatIndexValue:
		if len(body)%12 != 0 {
			return fmt.Errorf("codec: index-value body length %d not a multiple of 12", len(body))
		}
		count := len(body) / 12
		u.grow(count)
		for i := 0; i < count; i++ {
			u.Indices = append(u.Indices, int(binary.BigEndian.Uint32(body[12*i:12*i+4])))
			u.Values = append(u.Values, math.Float64frombits(binary.BigEndian.Uint64(body[12*i+4:12*i+12])))
		}
		if !sort.IntsAreSorted(u.Indices) {
			return fmt.Errorf("codec: index-value indices not sorted")
		}
	default:
		return fmt.Errorf("codec: unknown format tag %d", frame[0])
	}
	if err := u.Validate(); err != nil {
		return fmt.Errorf("codec: decoded frame invalid: %w", err)
	}
	return nil
}

// growFrame returns a length-0 buffer with capacity for at least need
// bytes, reusing buf's backing array when it suffices. A warm encode
// path therefore never allocates; a cold one allocates exactly once, at
// the final frame size.
func growFrame(buf []byte, need int) []byte {
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	return buf[:0]
}

// grow ensures u's (already length-0) Indices and Values slices can hold
// count entries without append growth, so a cold Update costs exactly one
// allocation per slice instead of a geometric growth sequence.
func (u *Update) grow(count int) {
	if cap(u.Indices) < count {
		u.Indices = make([]int, 0, count)
	}
	if cap(u.Values) < count {
		u.Values = make([]float64, 0, count)
	}
}

// complementInto appends to u.Indices the complement of the m big-endian
// uint32 unchanged indices in raw, which must be strictly increasing and
// within [0, u.NumParams). raw is only read during the call; nothing
// retains it.
func complementInto(u *Update, raw []byte, m int) error {
	next := 0 // next parameter index not yet emitted
	prev := -1
	for i := 0; i < m; i++ {
		idx := int(binary.BigEndian.Uint32(raw[4*i : 4*i+4]))
		if idx <= prev || idx >= u.NumParams {
			return fmt.Errorf("codec: bad unchanged index %d", idx)
		}
		prev = idx
		for ; next < idx; next++ {
			u.Indices = append(u.Indices, next)
		}
		next = idx + 1
	}
	for ; next < u.NumParams; next++ {
		u.Indices = append(u.Indices, next)
	}
	return nil
}

// Apply overwrites dst's entries at u.Indices with u.Values. dst must have
// length u.NumParams.
func Apply(dst []float64, u *Update) error {
	if len(dst) != u.NumParams {
		return fmt.Errorf("codec: Apply target has %d params, update says %d", len(dst), u.NumParams)
	}
	if err := u.Validate(); err != nil {
		return err
	}
	for i, idx := range u.Indices {
		dst[idx] = u.Values[i]
	}
	return nil
}

// DiffInto builds into u the Update a sender should transmit given the
// receiver-known baseline and the sender's current parameters: every index
// whose absolute accumulated change exceeds threshold is included.
// threshold < 0 is treated as 0 (send every changed parameter — the SNAP-0
// scheme). u's Indices and Values capacity is reused; all fields of u are
// overwritten.
func DiffInto(u *Update, sender, epoch int, baseline, current []float64, threshold float64) error {
	if len(baseline) != len(current) {
		return fmt.Errorf("codec: DiffInto length mismatch %d vs %d", len(baseline), len(current))
	}
	if threshold < 0 {
		threshold = 0
	}
	u.Sender, u.Epoch, u.NumParams = sender, epoch, len(current)
	u.Indices = u.Indices[:0]
	u.Values = u.Values[:0]
	u.grow(len(current))
	for idx := range current {
		delta := math.Abs(current[idx] - baseline[idx])
		if delta > threshold {
			u.Indices = append(u.Indices, idx)
			u.Values = append(u.Values, current[idx])
		}
	}
	return nil
}
