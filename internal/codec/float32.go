package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Float32 wire formats — an extension beyond the paper: SNAP's selective
// transmission composes with value quantization. Parameters are carried as
// float32 instead of float64, halving the value bytes at a precision loss
// (~1e-7 relative) far below any APE threshold the schedule ever uses.
//
//	format 3 (unchanged-list, f32):  4 + 4M + 4(N−M) = 4 + 4N bytes
//	format 4 (index-value,  f32):   8(N−M) bytes
//
// Remarkably the crossover rule is unchanged: format 3 is smaller iff
// 4+4N < 8(N−M) ⟺ N > 2M+1 — the same rule as the paper's 64-bit formats.
const (
	// FormatUnchangedList32 is format 1 with float32 values.
	FormatUnchangedList32 Format = 3
	// FormatIndexValue32 is format 2 with float32 values.
	FormatIndexValue32 Format = 4
)

// ChooseFormat32 returns the cheaper float32 layout (same rule as
// ChooseFormat).
func ChooseFormat32(n, m int) Format {
	if n > 2*m+1 {
		return FormatUnchangedList32
	}
	return FormatIndexValue32
}

// EncodeLossyTo serializes u with float32 values in the cheaper float32
// format. Values are rounded to float32 — the receiver reconstructs them
// with ~1e-7 relative error, which is orders of magnitude below SNAP's
// send thresholds. The frame is appended to buf[:0] (buf may be nil) and
// returned; see EncodeTo for the ownership rule.
func EncodeLossyTo(buf []byte, u *Update) ([]byte, Format, error) {
	if err := u.Validate(); err != nil {
		return nil, 0, err
	}
	f := ChooseFormat32(u.NumParams, u.NumWithheld())
	out, err := encodeAs32(buf, u, f)
	return out, f, err
}

func encodeAs32(buf []byte, u *Update, f Format) ([]byte, error) {
	n, m := u.NumParams, u.NumWithheld()
	buf = growFrame(buf, HeaderBytes+PayloadBytes(n, m, f))
	buf = append(buf[:0], byte(f))
	buf = binary.BigEndian.AppendUint32(buf, uint32(u.Sender))
	buf = binary.BigEndian.AppendUint32(buf, uint32(u.Epoch))
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))

	switch f {
	case FormatUnchangedList32:
		buf = binary.BigEndian.AppendUint32(buf, uint32(m))
		next := 0
		for idx := 0; idx < n; idx++ {
			if next < len(u.Indices) && u.Indices[next] == idx {
				next++
				continue
			}
			buf = binary.BigEndian.AppendUint32(buf, uint32(idx))
		}
		for _, v := range u.Values {
			buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(float32(v)))
		}
	case FormatIndexValue32:
		for i, idx := range u.Indices {
			buf = binary.BigEndian.AppendUint32(buf, uint32(idx))
			buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(float32(u.Values[i])))
		}
	default:
		return nil, fmt.Errorf("codec: encodeAs32 got non-float32 format %d", f)
	}
	return buf, nil
}

// decode32 parses the float32 frame bodies (called from DecodeInto,
// which has already reset u's slices; same strictly-increasing
// unchanged-index rule as the float64 formats). body is only read
// during the call; u's slices never alias it.
func decode32(f Format, u *Update, body []byte) error {
	switch f {
	case FormatUnchangedList32:
		if len(body) < 4 {
			return fmt.Errorf("codec: truncated unchanged-list32 frame")
		}
		m := int(binary.BigEndian.Uint32(body[:4]))
		if m > u.NumParams {
			return fmt.Errorf("codec: unchanged count %d exceeds N=%d", m, u.NumParams)
		}
		body = body[4:]
		want := 4*m + 4*(u.NumParams-m)
		if len(body) != want {
			return fmt.Errorf("codec: unchanged-list32 body is %d bytes, want %d", len(body), want)
		}
		u.grow(u.NumParams - m)
		if err := complementInto(u, body[:4*m], m); err != nil {
			return err
		}
		body = body[4*m:]
		for i := 0; i < u.NumParams-m; i++ {
			u.Values = append(u.Values, float64(math.Float32frombits(binary.BigEndian.Uint32(body[4*i:4*i+4]))))
		}
		return nil
	case FormatIndexValue32:
		if len(body)%8 != 0 {
			return fmt.Errorf("codec: index-value32 body length %d not a multiple of 8", len(body))
		}
		count := len(body) / 8
		u.grow(count)
		for i := 0; i < count; i++ {
			u.Indices = append(u.Indices, int(binary.BigEndian.Uint32(body[8*i:8*i+4])))
			u.Values = append(u.Values, float64(math.Float32frombits(binary.BigEndian.Uint32(body[8*i+4:8*i+8]))))
		}
		if !sort.IntsAreSorted(u.Indices) {
			return fmt.Errorf("codec: index-value32 indices not sorted")
		}
		return nil
	default:
		return fmt.Errorf("codec: decode32 got non-float32 format %d", f)
	}
}
