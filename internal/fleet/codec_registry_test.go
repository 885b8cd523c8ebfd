package fleet_test

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"halfback/internal/experiment"
	"halfback/internal/fleet"
)

// Every cell any registry exhibit journals is byte-equal to what a fresh
// gob.Encoder writes for it. The cells are collected by running the
// whole registry at the golden-test scale with a journal attached; the
// cell types are unexported, so each journaled payload is matched to its
// type by decoding it into every type the codec has seen and
// re-encoding with the fresh reference — a payload passes when some
// type reproduces it exactly, which no payload that differs from a fresh
// encoding of its value can.
func TestRegistryCellsEncodeLikeFreshEncoder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole exhibit registry")
	}
	dir := t.TempDir()
	var payloads [][]byte
	for _, e := range experiment.Registry() {
		path := filepath.Join(dir, e.ID+".journal")
		j, err := fleet.CreateJournal(path, fleet.JournalMeta{Tool: "codec-test", Exhibit: e.ID, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sc := experiment.Quick
		if fleet.RaceEnabled {
			// Every exhibit still journals every cell type; the detector
			// only makes each cell ~10× dearer.
			sc.Trials, sc.Horizon = 0.01, 0.02
		}
		sc.Workers = 2
		sc.Run = &fleet.Run{Journal: j}
		func() {
			// An exhibit whose sweep reports failed cells panics with the
			// joined error; its successful cells are journaled regardless.
			defer func() { _ = recover() }()
			e.Run(1, sc)
		}()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := fleet.ScanJournal(data)
		if err != nil || scan.TailErr != nil {
			t.Fatalf("exhibit %s: journal does not scan clean: %v / %v", e.ID, err, scan.TailErr)
		}
		for _, rec := range scan.Records {
			if rec.Data != nil {
				payloads = append(payloads, rec.Data)
			}
		}
	}
	types := fleet.CodecTypes()
	if len(payloads) == 0 || len(types) == 0 {
		t.Fatalf("collected %d payloads of %d cell types", len(payloads), len(types))
	}
	matched := make(map[reflect.Type]int)
	for i, p := range payloads {
		ok := false
		for _, rt := range types {
			v := reflect.New(rt.Elem())
			if gob.NewDecoder(bytes.NewReader(p)).Decode(v.Interface()) != nil {
				continue
			}
			fresh, err := fleet.EncodeFresh(v.Interface())
			if err != nil || !bytes.Equal(fresh, p) {
				continue
			}
			// And the pooled encoder agrees on the value just recovered.
			pooled, err := fleet.EncodeCellData(v.Interface())
			if err != nil || !bytes.Equal(pooled, p) {
				t.Fatalf("payload %d (%v): encodeCellData differs from the journaled bytes (err %v)", i, rt, err)
			}
			matched[rt]++
			ok = true
			break
		}
		if !ok {
			t.Fatalf("payload %d (%d bytes) is not the fresh encoding of any of the %d cell types", i, len(p), len(types))
		}
	}
	for rt, n := range matched {
		t.Logf("%6d cells of %v", n, rt)
	}
}
