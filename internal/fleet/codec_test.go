package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"halfback/internal/sim"
	"halfback/internal/transport"
	"halfback/internal/workload"
)

// planetCell has the shape of the cell the PlanetLab exhibits journaled
// before cells were rows: a struct only gob can code.
type planetCell struct {
	Pair   int
	Scheme string
	Path   workload.PathSpec
	Stats  *transport.FlowStats
}

func newPlanetCell(i int) planetCell {
	return planetCell{
		Pair:   i,
		Scheme: "Halfback",
		Path: workload.PathSpec{
			Label: fmt.Sprintf("pl-%03d", i), RTT: sim.Duration(80+i) * sim.Millisecond,
			RateBps: 12_000_000, BufferBytes: 64 << 10, LossProb: 0.003,
		},
		Stats: &transport.FlowStats{
			Scheme: "Halfback", FlowBytes: 100_000, NumSegs: 69,
			Start: 0, Established: sim.Time(80 * sim.Millisecond), ReceiverDone: sim.Time(400 * sim.Millisecond),
			SenderDone: sim.Time(480 * sim.Millisecond), Completed: true,
			HandshakeRTT: 80 * sim.Millisecond, DataPktsSent: int64(100 + i), ProactiveRetx: 31,
			PayloadSumRecv: 0x9e3779b97f4a7c15 ^ uint64(i),
		},
	}
}

// Shapes the gob path covers beyond the PlanetLab cell.
type codecInner struct {
	A int
	B []float64
}

type codecShapes struct {
	Nil, Set *codecInner
	Empty    []int
	Long     []float64
	Text     string
	Rows     [][]any
	M        map[string]int
	F        float64
}

// codecCases returns one pointer per cell shape that is not a Row.
func codecCases() []any {
	long := make([]float64, 5000)
	for i := range long {
		long[i] = math.Sqrt(float64(i))
	}
	pc := newPlanetCell(7)
	empty := planetCell{}
	row := []any{"Halfback", 0.5, 1200, int64(7), uint64(9), true, 41.5, "ok"}
	shapes := codecShapes{
		Set: &codecInner{A: 1, B: []float64{1, 2, 3}}, Empty: []int{}, Long: long,
		Text: strings.Repeat("x", 300), Rows: [][]any{row, {}, row}, M: map[string]int{"k": 1}, F: math.Inf(-1),
	}
	var nilRow []any
	f, n, s := 3.25, 42, "singleton"
	return []any{&pc, &empty, &row, &nilRow, &shapes, &codecShapes{}, &f, &n, &s,
		&cellResult{Name: "a", Value: 1.25}}
}

// Errors are gob's: a value gob cannot encode fails as it does for a
// fresh encoder, and a good value after it encodes as usual.
func TestEncodeCellDataErrorsLikeFresh(t *testing.T) {
	type unencodable struct {
		Name string
		V    any
	}
	bad := unencodable{Name: "bad", V: struct{ C chan int }{}} // unregistered, unencodable dynamic type
	_, wantErr := encodeFresh(&bad)
	if wantErr == nil {
		t.Fatal("reference encoder accepted an unregistered dynamic type")
	}
	for i := 0; i < 3; i++ {
		if _, err := encodeCellData(&bad); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("attempt %d: err = %v, want %v", i, err, wantErr)
		}
		good := unencodable{Name: "good", V: 7}
		got, err := encodeCellData(&good)
		want, _ := encodeFresh(&good)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("attempt %d: a good value after a failed one: err %v, bytes equal %v", i, err, bytes.Equal(got, want))
		}
	}
}

// decodeCell is a fresh gob decoder for every cell type but Row.
func TestDecodeCellMatchesFreshDecoder(t *testing.T) {
	for i, v := range codecCases() {
		data, err := encodeCellData(v)
		if err != nil {
			t.Fatal(err)
		}
		rt := reflect.TypeOf(v).Elem()
		want, got := reflect.New(rt), reflect.New(rt)
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(want.Interface()); err != nil {
			t.Fatalf("case %d: reference decode: %v", i, err)
		}
		if err := decodeCell(data, got.Interface()); err != nil {
			t.Fatalf("case %d (%v): %v", i, rt, err)
		}
		if !reflect.DeepEqual(got.Elem().Interface(), want.Elem().Interface()) {
			t.Fatalf("case %d (%v): decodeCell = %+v, fresh decoder = %+v", i, rt, got.Elem(), want.Elem())
		}
	}
}

// rowCases are rows the payload must carry bit for bit.
func rowCases() []Row {
	long := make(Row, 10_000)
	for i := range long {
		long[i] = math.Float64frombits(uint64(i) * 0x9e3779b97f4a7c15) // every exponent, NaNs included
	}
	return []Row{
		nil, {}, {0}, {math.Copysign(0, -1)}, {math.Inf(1), math.Inf(-1)},
		{math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000bad)},
		{412.5, 1, 0, 4.75, 3}, {math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-300},
		long,
	}
}

// A Row travels as uvarint n · n × 8 bytes and comes back bit for bit:
// NaN payloads, infinities and −0 included; nil and empty both come back
// empty.
func TestRowPayloadRoundTrip(t *testing.T) {
	for i, r := range rowCases() {
		data, err := encodeCellData(&r)
		if err != nil {
			t.Fatal(err)
		}
		if want := uvarintLen(uint64(len(r))) + 8*len(r); len(data) != want {
			t.Fatalf("case %d: %d payload bytes, want %d", i, len(data), want)
		}
		var got Row
		if err := decodeCell(data, &got); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(r) || cap(got) > len(data)/8 {
			t.Fatalf("case %d: %d values (cap %d) from %d bytes, want %d", i, len(got), cap(got), len(data), len(r))
		}
		for k := range r {
			if math.Float64bits(got[k]) != math.Float64bits(r[k]) {
				t.Fatalf("case %d value %d: %#x, want %#x", i, k, math.Float64bits(got[k]), math.Float64bits(r[k]))
			}
		}
	}
}

// A Row payload is exactly what encodeCellData writes or an error that
// leaves the target alone, and a count the payload cannot hold allocates
// nothing.
func TestRowPayloadRejectsMalformed(t *testing.T) {
	valid, _ := encodeCellData(&Row{1, 2, 3})
	oversized := binary.AppendUvarint(nil, 1<<60)
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"empty":              {nil, errRowCount},
		"unterminated count": {[]byte{0x80}, errRowCount},
		"non-minimal count":  {append([]byte{0x83, 0x00}, valid[1:]...), errRowCount},
		"truncated":          {valid[:len(valid)-1], errRowShort},
		"oversized count":    {append(bytes.Clone(oversized), valid[1:]...), errRowShort},
		"trailing bytes":     {append(bytes.Clone(valid), 0), errRowTrailing},
	} {
		got := Row{7}
		if err := decodeCell(tc.data, &got); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		if len(got) != 1 || got[0] != 7 {
			t.Errorf("%s: a refused payload changed the row to %v", name, got)
		}
	}
	var r Row
	if n := testing.AllocsPerRun(100, func() { _ = decodeCell(oversized, &r) }); n != 0 {
		t.Fatalf("decoding an oversized count allocated %v times", n)
	}
}

// FuzzRowCodec: decoding arbitrary bytes as a Row never panics, and every
// payload it accepts re-encodes to the same bytes from at most len/8
// floats. Seeded with real rows, their torn and padded variants, and the
// cell payloads of the journal decoder's seed images.
func FuzzRowCodec(f *testing.F) {
	for _, r := range rowCases() {
		if len(r) > 100 {
			continue
		}
		data, _ := encodeCellData(&r)
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(append(bytes.Clone(data), 0))
	}
	for _, s := range fuzzSeedJournals(f) {
		if scan, err := ScanJournal(s); err == nil {
			for _, rec := range scan.Records {
				if rec.Kind == recCell {
					f.Add(rec.Data)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Row
		if decodeCell(data, &r) != nil {
			return
		}
		if cap(r) > len(data)/8 {
			t.Fatalf("%d payload bytes decoded into %d floats", len(data), cap(r))
		}
		if again, _ := encodeCellData(&r); !bytes.Equal(again, data) {
			t.Fatalf("payload %x re-encodes to %x", data, again)
		}
	})
}

// BenchmarkCellCodec is the payload layer's microbenchmark: one
// PlanetLab row encoded and decoded.
func BenchmarkCellCodec(b *testing.B) {
	row := Row{412.5, 1, 0, 4.75, 3}
	payload, _ := encodeCellData(&row)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := encodeCellData(&row); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var out Row
			if err := decodeCell(payload, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
