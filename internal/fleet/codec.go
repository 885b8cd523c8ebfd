package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
)

// Row is one sweep cell's result: the numbers its exhibit's tables read,
// in a column order the exhibit fixes. Integer and boolean columns are
// stored as float64 and convert back when the tables render.
type Row []float64

// The cell payload codec (DESIGN.md §9) serves journal records, -resume
// replay and both ends of the distributed wire. A Row's payload is
//
//	uvarint n · n × float64 bits, little-endian
//
// so equal rows have equal payloads in every process. Any other cell
// type is coded by a fresh gob encoder or decoder per value, whose bytes
// may differ between processes; every exhibit and fctsweep cell is a
// Row, so the only cells left on gob are the benchmark harness's
// MapOpts[int] probes (benchmark/probes.go).

// Why decodeCell refuses a Row payload.
var (
	errRowCount    = errors.New("fleet: row payload: malformed count")
	errRowShort    = errors.New("fleet: row payload: count exceeds the payload")
	errRowTrailing = errors.New("fleet: row payload: trailing bytes")
)

// encodeCellData encodes one cell result (v is a *T) into the payload
// journal records and the distributed wire protocol carry.
func encodeCellData(v any) ([]byte, error) {
	r, ok := v.(*Row)
	if !ok {
		return encodeFresh(v)
	}
	n := uint64(len(*r))
	out := binary.AppendUvarint(make([]byte, 0, uvarintLen(n)+8*len(*r)), n)
	for _, x := range *r {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out, nil
}

// encodeFresh gob-encodes v with a new encoder.
func encodeFresh(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeCell decodes a payload into v (a *T pointing at a zero T). A Row
// payload must be exactly what encodeCellData writes, and decoding it
// allocates at most len(data)/8 floats.
func decodeCell(data []byte, v any) error {
	r, ok := v.(*Row)
	if !ok {
		return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
	}
	n, w := binary.Uvarint(data)
	switch body := uint64(len(data) - max(w, 0)); {
	case w <= 0 || w != uvarintLen(n):
		return errRowCount
	case n > body/8:
		return errRowShort
	case body != 8*n:
		return errRowTrailing
	}
	row := make(Row, n)
	for i := range row {
		row[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[w+8*i:]))
	}
	*r = row
	return nil
}
