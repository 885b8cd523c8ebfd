// Property tests for the State() contract: every controller's decision
// state must survive a gob round-trip with no field silently dropped
// (gob ignores unexported fields, so a single lowercase field would
// corrupt crash-safe resume), and the zero value of every state struct
// must be a valid start state — a controller restored from scratch has
// to carry a real flow.
package cc_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/ptest"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// fillValue writes a distinct non-zero value into v, recursing through
// structs, arrays and slices, so a field dropped by serialization can
// never masquerade as "was zero anyway". seed differentiates sibling
// fields.
func fillValue(t *testing.T, v reflect.Value, seed int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(seed + 3))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(seed + 3))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(seed) + 1.5)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(t, v.Field(i), seed+i+1)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillValue(t, v.Index(i), seed+i+1)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 3, 3)
		for i := 0; i < 3; i++ {
			fillValue(t, s.Index(i), seed+i+1)
		}
		v.Set(s)
	default:
		t.Fatalf("state field kind %v not covered by the filler — extend fillValue", v.Kind())
	}
}

// assertExported fails on any unexported field, recursively: gob drops
// them without error, which is exactly the silent state loss the
// State() contract forbids.
func assertExported(t *testing.T, typ reflect.Type, path string) {
	if typ.Kind() != reflect.Struct {
		return
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.PkgPath != "" {
			t.Errorf("%s.%s is unexported: gob would silently drop it", path, f.Name)
		}
		ft := f.Type
		for ft.Kind() == reflect.Slice || ft.Kind() == reflect.Array || ft.Kind() == reflect.Ptr {
			ft = ft.Elem()
		}
		assertExported(t, ft, path+"."+f.Name)
	}
}

// TestStateGobRoundTripLosesNoField: populate every field of every
// scheme's state struct with distinct non-zero values, push it through
// gob, and require the decoded struct to be deeply equal.
func TestStateGobRoundTripLosesNoField(t *testing.T) {
	for _, name := range scheme.AllNames() {
		t.Run(name, func(t *testing.T) {
			st := scheme.MustNew(name).Make().State()
			v := reflect.ValueOf(st)
			if v.Kind() != reflect.Ptr || v.Elem().Kind() != reflect.Struct {
				t.Fatalf("State() = %T, want pointer to struct", st)
			}
			assertExported(t, v.Elem().Type(), v.Elem().Type().Name())
			fillValue(t, v.Elem(), 1)

			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(st); err != nil {
				t.Fatalf("encode: %v", err)
			}
			decoded := reflect.New(v.Elem().Type()).Interface()
			if err := gob.NewDecoder(&buf).Decode(decoded); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(st, decoded) {
				t.Fatalf("round trip lost state:\nsent    %+v\ngot back %+v",
					v.Elem().Interface(), reflect.ValueOf(decoded).Elem().Interface())
			}
		})
	}
}

// TestZeroValueStateIsValidStart: wipe a fresh controller's state to the
// zero value (as a from-scratch restore would) and require it to still
// carry a full flow to completion on a clean path.
func TestZeroValueStateIsValidStart(t *testing.T) {
	for _, name := range scheme.AllNames() {
		t.Run(name, func(t *testing.T) {
			ctrl := scheme.MustNew(name).Make()
			v := reflect.ValueOf(ctrl.State()).Elem()
			v.Set(reflect.Zero(v.Type()))

			w := ptest.NewWorld(netem.PathConfig{})
			conn := w.Dial(60_000, transport.Options{}, func() cc.Controller { return ctrl })
			conn.Start(0)
			w.Sched.RunUntil(w.Sched.Now().Add(300 * sim.Second))
			conn.Abort()
			if !conn.Stats.Completed {
				t.Fatalf("zero-value state: flow did not complete (stats %+v)", conn.Stats)
			}
		})
	}
}

// TestStateTypesAreDistinctPerScheme guards the registry against two
// schemes accidentally sharing one state struct with different
// semantics; wrappers that legitimately reuse an engine (TCP variants on
// RenoState) are expected collisions and listed here.
func TestStateTypesAreDistinctPerScheme(t *testing.T) {
	shared := map[string]bool{ // scheme families that share an engine state
		"tcp.RenoState": true, "core.HalfbackState": true,
	}
	seen := map[string]string{}
	for _, name := range scheme.AllNames() {
		typ := reflect.TypeOf(scheme.MustNew(name).Make().State()).Elem()
		key := typ.String()
		if prev, ok := seen[key]; ok && !shared[key] {
			t.Errorf("%s and %s share state type %s but are not a declared family", prev, name, key)
		}
		seen[key] = name
	}
}
