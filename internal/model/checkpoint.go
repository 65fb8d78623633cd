package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/snapml/snap/internal/linalg"
)

// Checkpoint format: a versioned, CRC-protected binary encoding of a flat
// parameter vector, so a converged edge model can be persisted and
// shipped to inference nodes.
//
//	magic "SNAP" | version u16 | dim u64 | dim × float64 | crc32 of payload
//
// Version 2 holds the MLP's W1 input-major (see MLP). A checkpoint carries
// no model identity, so a version 1 file, which may hold an MLP's W1
// row-major, is refused rather than loaded permuted; an SVM saved as
// version 1 must be re-saved too.
const (
	checkpointMagic   = "SNAP"
	checkpointVersion = 2
)

// SaveParams writes params to w in the checkpoint format.
func SaveParams(w io.Writer, params linalg.Vector) error {
	header := make([]byte, 0, 4+2+8)
	header = append(header, checkpointMagic...)
	header = binary.BigEndian.AppendUint16(header, checkpointVersion)
	header = binary.BigEndian.AppendUint64(header, uint64(len(params)))

	payload := make([]byte, 0, 8*len(params))
	for _, v := range params {
		payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(v))
	}
	crc := crc32.ChecksumIEEE(payload)

	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("model: writing checkpoint header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("model: writing checkpoint payload: %w", err)
	}
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc)
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("model: writing checkpoint checksum: %w", err)
	}
	return nil
}

// LoadParams reads a checkpoint written by SaveParams, verifying magic,
// version, and checksum.
func LoadParams(r io.Reader) (linalg.Vector, error) {
	header := make([]byte, 4+2+8)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("model: reading checkpoint header: %w", err)
	}
	if string(header[:4]) != checkpointMagic {
		return nil, fmt.Errorf("model: bad checkpoint magic %q", header[:4])
	}
	switch v := binary.BigEndian.Uint16(header[4:6]); v {
	case checkpointVersion:
	case 1:
		return nil, errors.New("model: checkpoint version 1 predates the MLP's input-major parameter layout; re-save the model")
	default:
		return nil, fmt.Errorf("model: unsupported checkpoint version %d", v)
	}
	dim := binary.BigEndian.Uint64(header[6:14])
	const maxDim = 1 << 28 // 2 GiB of float64s — far above any SNAP model
	if dim > maxDim {
		return nil, fmt.Errorf("model: checkpoint dimension %d exceeds limit", dim)
	}
	// dim is untrusted: the buffer grows only with the bytes that arrive,
	// so a forged header costs no more memory than the body behind it.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(8*dim)); err != nil {
		return nil, fmt.Errorf("model: reading checkpoint payload: %w", err)
	}
	payload := buf.Bytes()
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("model: reading checkpoint checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("model: checkpoint checksum mismatch (got %08x, want %08x)", got, want)
	}
	out := linalg.NewVector(int(dim))
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(payload[8*i : 8*i+8]))
	}
	return out, nil
}
