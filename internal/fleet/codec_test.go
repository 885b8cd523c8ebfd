package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"halfback/internal/sim"
	"halfback/internal/transport"
	"halfback/internal/workload"
)

// planetCell has the shape of the cell the PlanetLab exhibits (Figs 5–8)
// journal: the benchmark's dist_loopback and fleet_journal payload.
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

// Shapes the property test covers beyond the PlanetLab cell.
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

type codecDynamic struct {
	Name string
	V    any // holds a registered struct: its definition travels inside the value message
}

type codecBehind struct{ X, Y int }

func init() { gob.Register(codecBehind{}) }

// codecCases returns one pointer per cell shape: the values every path
// through encodeCellData has to get byte-right.
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
	dyn := codecDynamic{Name: "dyn", V: codecBehind{1, 2}}
	dynNil := codecDynamic{Name: "no dynamic type this time"}
	return []any{&pc, &empty, &row, &nilRow, &shapes, &codecShapes{}, &f, &n, &s,
		&cellResult{Name: "a", Value: 1.25}, &dyn, &dynNil, &dyn}
}

// encodeCellData's bytes are those of a fresh gob.Encoder on an empty
// buffer — for every shape, on the first call and the thousandth, and
// from concurrent goroutines sharing the pools.
func TestEncodeCellDataMatchesFreshEncoder(t *testing.T) {
	cases := codecCases()
	want := make([][]byte, len(cases))
	for i, v := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatalf("case %d (%T): reference encode: %v", i, v, err)
		}
		want[i] = buf.Bytes()
	}
	check := func(round int) error {
		for i, v := range cases {
			got, err := encodeCellData(v)
			if err != nil {
				return fmt.Errorf("round %d case %d (%T): %v", round, i, v, err)
			}
			if !bytes.Equal(got, want[i]) {
				return fmt.Errorf("round %d case %d (%T): %d bytes differ from the fresh encoder's %d", round, i, v, len(got), len(want[i]))
			}
		}
		return nil
	}
	if err := check(0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 1; round <= 1000; round++ {
				if err := check(round); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Errors are the fresh encoder's too: a value gob cannot encode fails
// the same way through the pooled path, and does not poison the pool.
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

// decodeCell equals a fresh decoder on every shape, first call and
// repeated calls, concurrently.
func TestDecodeCellMatchesFreshDecoder(t *testing.T) {
	cases := codecCases()
	payloads := make([][]byte, len(cases))
	for i, v := range cases {
		data, err := encodeFresh(v)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = data
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for i, v := range cases {
					rt := reflect.TypeOf(v).Elem()
					want, got := reflect.New(rt), reflect.New(rt)
					if err := gob.NewDecoder(bytes.NewReader(payloads[i])).Decode(want.Interface()); err != nil {
						t.Errorf("case %d: reference decode: %v", i, err)
						return
					}
					if err := decodeCell(payloads[i], got.Interface()); err != nil {
						t.Errorf("round %d case %d (%v): %v", round, i, rt, err)
						return
					}
					if !reflect.DeepEqual(got.Elem().Interface(), want.Elem().Interface()) {
						t.Errorf("round %d case %d (%v): decodeCell = %+v, fresh decoder = %+v", round, i, rt, got.Elem(), want.Elem())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// splitDefinitions follows gob's framing on real payloads and refuses
// what it does not understand.
func TestSplitDefinitions(t *testing.T) {
	pc := newPlanetCell(1)
	data, err := encodeFresh(&pc)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := splitDefinitions(data)
	if !ok || n == 0 || n >= len(data) {
		t.Fatalf("struct payload: split = %d, %v (len %d), want a definition prefix and a value", n, ok, len(data))
	}
	// The remainder is one value message that a decoder primed with the
	// prefix accepts; the prefix alone is definitions only.
	if m, ok := splitDefinitions(data[n:]); !ok || m != 0 {
		t.Fatalf("value message alone: split = %d, %v, want 0, true", m, ok)
	}
	if _, ok := splitDefinitions(data[:n]); ok {
		t.Fatal("a payload of definitions only has no value message, want ok = false")
	}
	f := 1.5
	single, _ := encodeFresh(&f)
	if n, ok := splitDefinitions(single); !ok || n != 0 {
		t.Fatalf("basic-type payload: split = %d, %v, want 0, true (no definitions)", n, ok)
	}
	for _, bad := range [][]byte{nil, {}, {0x05}, {0x03, 0xff}, {0xf7}, {0x80}, data[:n+1], {0xfe, 0xff, 0xff, 1}} {
		if n, ok := splitDefinitions(bad); ok && n != 0 {
			t.Fatalf("splitDefinitions(%x) = %d, true", bad, n)
		}
	}
}

// foreignHelperEnv switches the test binary into the helper process that
// produces payloads under foreign type ids.
const foreignHelperEnv = "FLEET_CODEC_FOREIGN_HELPER"

// Decoy types the helper touches before its first cell, the way a worker
// registers its RPC types first: they take the type ids this process
// hands to the cell's types.
type decoyA struct{ P, Q string }
type decoyB struct {
	R []decoyA
	S map[string]float64
}
type decoyC struct{ T *decoyB }

// TestCodecForeignHelper is not a test: under foreignHelperEnv it writes
// N length-prefixed planetCell payloads to stdout and exits.
func TestCodecForeignHelper(t *testing.T) {
	if os.Getenv(foreignHelperEnv) == "" {
		t.Skip("helper process for TestDecodePrimedOnForeignTypeIDs")
	}
	for _, decoy := range []any{decoyA{}, decoyB{}, decoyC{}, &decoyC{T: &decoyB{}}} {
		if err := gob.NewEncoder(io.Discard).Encode(decoy); err != nil {
			fmt.Fprintln(os.Stderr, "helper: decoy:", err)
			os.Exit(3)
		}
	}
	out := os.NewFile(3, "payloads")
	for i := 0; i < foreignPayloads; i++ {
		pc := newPlanetCell(i)
		data, err := encodeCellData(&pc)
		if err == nil {
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(data)))
			_, err = out.Write(append(hdr[:], data...))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "helper:", err)
			os.Exit(3)
		}
	}
	os.Exit(0)
}

const foreignPayloads = 50

// foreignPayloadsFromHelper re-executes the test binary as the helper and
// returns the payloads it produced.
func foreignPayloadsFromHelper(t *testing.T) [][]byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestCodecForeignHelper$")
	cmd.Env = append(os.Environ(), foreignHelperEnv+"=1")
	cmd.ExtraFiles = []*os.File{w}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	raw, rerr := io.ReadAll(r)
	if err := cmd.Wait(); err != nil || rerr != nil {
		t.Fatalf("helper process: %v / %v", err, rerr)
	}
	var payloads [][]byte
	for len(raw) >= 4 {
		n := int(binary.LittleEndian.Uint32(raw))
		payloads = append(payloads, raw[4:4+n])
		raw = raw[4+n:]
	}
	if len(payloads) != foreignPayloads {
		t.Fatalf("helper produced %d payloads, want %d", len(payloads), foreignPayloads)
	}
	return payloads
}

// checkPrimedDecodes decodes payloads — all carrying one definition
// prefix this process has not seen — and asserts that each equals a
// fresh decoder's result and that every payload after the first went
// through the primed path, not the fallback.
func checkPrimedDecodes(t *testing.T, payloads [][]byte) {
	t.Helper()
	primed0, fresh0 := primedDecodes.Load(), freshDecodes.Load()
	for i, data := range payloads {
		var want, got planetCell
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
			t.Fatalf("payload %d: reference decode: %v", i, err)
		}
		if err := decodeCell(data, &got); err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("payload %d: decodeCell = %+v, fresh decoder = %+v", i, got, want)
		}
	}
	// The first payload primes a decoder (unless an earlier test already
	// decoded this prefix); none after it may fall back.
	primed, fresh := primedDecodes.Load()-primed0, freshDecodes.Load()-fresh0
	if fresh > 1 || primed+fresh != uint64(len(payloads)) {
		t.Fatalf("%d payloads: %d decoded fresh and %d primed, want at most 1 fresh — the primed path is not the one taken",
			len(payloads), fresh, primed)
	}
}

// A worker's payloads do not start with the bytes this process's encoder
// writes — gob type ids are process-wide and order-dependent — and
// decodeCell still takes the primed path for them, because it learns
// the prefix from the payload.
func TestDecodePrimedOnForeignTypeIDs(t *testing.T) {
	payloads := foreignPayloadsFromHelper(t)
	pc := newPlanetCell(0)
	local, err := encodeCellData(&pc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(local, payloads[0]) {
		t.Fatal("the helper's payload equals this process's: the decoys did not shift its type ids, so the test proves nothing")
	}
	n, _ := splitDefinitions(local)
	m, ok := splitDefinitions(payloads[0])
	if !ok || bytes.Equal(local[:n], payloads[0][:m]) {
		t.Fatalf("foreign prefix (ok=%v) equals the local one", ok)
	}
	checkPrimedDecodes(t, payloads)
}

// The same on a payload committed under testdata/: bytes another
// process — possibly another build — produced.
func TestDecodeCommittedForeignPayload(t *testing.T) {
	path := filepath.Join("testdata", "foreign_planet_cell.gob")
	if os.Getenv("HALFBACK_GEN_CORPUS") != "" {
		if err := os.WriteFile(path, foreignPayloadsFromHelper(t)[7], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with HALFBACK_GEN_CORPUS=1)", err)
	}
	// Flip a value byte per copy so every payload is distinct but shares
	// the committed definition prefix.
	n, ok := splitDefinitions(data)
	if !ok || n == 0 {
		t.Fatalf("committed payload does not split: %d, %v", n, ok)
	}
	var want planetCell
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, newPlanetCell(7)) {
		t.Fatalf("committed payload decodes to %+v", want)
	}
	checkPrimedDecodes(t, [][]byte{data, data, data, data})
}

// FuzzCellCodec holds decodeCell to the fresh decoder on arbitrary
// bytes: it errs exactly when a fresh decoder errs, yields the same
// value otherwise, and a payload that errs does not poison the decode
// of the next valid one. Seeded from the journal decoder's corpus (cell
// payloads live inside those images) plus real payloads.
func FuzzCellCodec(f *testing.F) {
	for _, s := range fuzzSeedJournals(f) {
		f.Add(s)
		if scan, err := ScanJournal(s); err == nil {
			for _, rec := range scan.Records {
				if rec.Kind == recCell {
					f.Add(rec.Data)
				}
			}
		}
	}
	pc := newPlanetCell(3)
	valid, err := encodeFresh(&pc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	split, _ := splitDefinitions(valid)
	f.Add(valid[:split])
	f.Add(valid[split:])
	f.Add(append(bytes.Clone(valid), valid...))
	small, _ := encodeFresh(&cellResult{Name: "a", Value: 1.25})
	f.Add(small)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, target := range []func() any{
			func() any { return new(planetCell) },
			func() any { return new(cellResult) },
		} {
			want, got := target(), target()
			wantErr := gob.NewDecoder(bytes.NewReader(data)).Decode(want)
			gotErr := decodeCell(data, got)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%T: decodeCell err = %v, fresh decoder err = %v", got, gotErr, wantErr)
			}
			if wantErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%T: decodeCell = %+v, fresh decoder = %+v", got, got, want)
			}
			// Decode twice: the second call may find the decoder the first
			// one pooled, and must agree with it.
			again := target()
			if err := decodeCell(data, again); (err == nil) != (wantErr == nil) || (err == nil && !reflect.DeepEqual(again, want)) {
				t.Fatalf("%T: second decodeCell = %+v, %v; fresh decoder = %+v, %v", got, again, err, want, wantErr)
			}
		}
		var after planetCell
		if err := decodeCell(valid, &after); err != nil || !reflect.DeepEqual(after, pc) {
			t.Fatalf("a valid payload after the fuzzed one: %+v, %v", after, err)
		}
	})
}

// BenchmarkCellCodec is the payload layer's microbenchmark: one
// PlanetLab cell encoded and decoded, through the pooled engines and
// through the fresh-coder reference (what every cell paid before).
func BenchmarkCellCodec(b *testing.B) {
	pc := newPlanetCell(5)
	payload, err := encodeFresh(&pc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/primed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encodeCellData(&pc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encodeFresh(&pc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/primed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out planetCell
			if err := decodeCell(payload, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out planetCell
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
