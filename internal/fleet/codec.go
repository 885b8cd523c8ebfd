package fleet

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
	"sync/atomic"
)

// The cell payload codec (DESIGN.md §9): one encoding serves journal
// records, -resume replay and both ends of the distributed wire.
//
// A payload is exactly what gob.NewEncoder on an empty buffer writes for
// one value — the type-definition messages of the cell type, then one
// value message — so every record is self-contained and a journal can
// be decoded record by record, in any order, by any process. What is
// pooled is the *engine*, not the bytes: compiling a gob encoder or
// decoder for a type costs more than simulating a PlanetLab cell, so
//
//   - encodeCellData encodes with a pooled encoder that has already sent
//     T's types (it then emits only the value message) and prepends the
//     definition bytes a fresh encoder writes, cached per type;
//   - decodeCell splits the payload at the end of its leading definition
//     messages and feeds only the value message to a pooled decoder that
//     has already received *that exact prefix*.
//
// The decoder's prefix is learned from the payload, never computed
// locally: gob type ids are assigned process-wide in first-use order,
// so a worker's payload does not start with the bytes this process's
// encoder would write, and a journal written by an older binary need
// not either.
//
// Pooling is sound only while a pooled engine's state is a function of
// the cell type alone. A value with an interface in it breaks that: gob
// defines the dynamic type *inside* the value message, the first time an
// encoder meets it, where it cannot be told apart from data — so a type
// whose graph reaches an interface (the ad-hoc sweeps' []any rows) is
// always coded fresh. So is anything unexpected — framing this file
// does not understand, a prefix beyond the per-type bound, any error —
// which makes results and errors those of a fresh gob coder.

// Pool bounds. A coordinator sees one prefix per distinct worker type-id
// order plus its own and those of journals it resumes; coders per pool
// cover the goroutines that code concurrently.
const (
	maxPrefixesPerType = 8
	maxPooledCoders    = 16
)

// Diagnostics: how many payloads each decode path handled. Tests assert
// on them that the primed path is the one taken.
var (
	primedDecodes atomic.Uint64
	freshDecodes  atomic.Uint64
)

// cellCodec holds the pooled engines of one cell type (keyed by the
// pointer type callers pass, *T).
type cellCodec struct {
	elem reflect.Type // T
	// encPrefix is the definition messages a fresh encoder writes before
	// a T value.
	encPrefix []byte

	mu       sync.Mutex
	encoders []*primedEncoder
	// decoders are keyed by the exact definition prefix they received
	// (looked up by m[string(prefix)], which does not allocate).
	decoders map[string]*decoderPool
}

type decoderPool struct{ free []*primedDecoder }

// primedEncoder is an encoder that has sent T's types, so Encode emits
// one value message into buf.
type primedEncoder struct {
	enc *gob.Encoder
	buf bytes.Buffer
}

// primedDecoder is a decoder that has received one definition prefix;
// r is reset onto each payload's value message. It must be a
// *bytes.Reader: gob.NewDecoder wraps a reader that is not an
// io.ByteReader in a bufio.Reader that reads ahead.
type primedDecoder struct {
	dec *gob.Decoder
	r   bytes.Reader
}

func newDecoder() *primedDecoder {
	d := &primedDecoder{}
	d.dec = gob.NewDecoder(&d.r)
	return d
}

var codecs sync.Map // reflect.Type (*T) → *cellCodec, nil for a type always coded fresh

// codecFor returns the codec of v's type; nil — code it fresh — unless v
// is a non-nil pointer (every caller passes &out) to a type whose values
// carry no dynamic types.
func codecFor(v any) *cellCodec {
	rt := reflect.TypeOf(v)
	if rt == nil || rt.Kind() != reflect.Pointer || reflect.ValueOf(v).IsNil() {
		return nil
	}
	c, ok := codecs.Load(rt)
	if !ok {
		c, _ = codecs.LoadOrStore(rt, newCellCodec(rt.Elem()))
	}
	return c.(*cellCodec)
}

// newCellCodec primes T's first encoder, which also yields the type's
// definition prefix; nil for a type that cannot be pooled.
func newCellCodec(elem reflect.Type) *cellCodec {
	if reachesInterface(elem, map[reflect.Type]bool{}) {
		return nil
	}
	c := &cellCodec{elem: elem, decoders: make(map[string]*decoderPool)}
	e, n := c.primeEncoder()
	if e == nil {
		return nil
	}
	c.encPrefix = bytes.Clone(e.buf.Bytes()[:n])
	c.encoders = []*primedEncoder{e}
	return c
}

// primeEncoder builds an encoder and has it send every type a T value
// can hold by encoding T's zero value; n is the length of the definition
// messages that wrote. A nil encoder means the zero value does not
// encode.
func (c *cellCodec) primeEncoder() (e *primedEncoder, n int) {
	e = &primedEncoder{}
	e.enc = gob.NewEncoder(&e.buf)
	if err := e.enc.Encode(reflect.New(c.elem).Interface()); err != nil {
		return nil, 0
	}
	n, ok := splitDefinitions(e.buf.Bytes())
	if !ok {
		return nil, 0
	}
	return e, n
}

// reachesInterface reports whether a value of type t can hold an
// interface value anywhere inside it.
func reachesInterface(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return reachesInterface(t.Elem(), seen)
	case reflect.Map:
		return reachesInterface(t.Key(), seen) || reachesInterface(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if reachesInterface(t.Field(i).Type, seen) {
				return true
			}
		}
	}
	return false
}

// encodeCellData gob-encodes one cell result (v is a *T) into the
// payload form journal records and the distributed wire protocol carry:
// byte for byte what gob.NewEncoder writes on an empty buffer. Payloads
// of one process are therefore identical for identical values in
// whatever order cells are encoded; across processes they are equal
// after decoding, not byte-equal — type ids differ.
func encodeCellData(v any) ([]byte, error) {
	c := codecFor(v)
	if c == nil {
		return encodeFresh(v)
	}
	e := c.getEncoder()
	if e == nil {
		return encodeFresh(v)
	}
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// An encoder that returned an error is in an undefined state:
		// drop it. The fresh path reproduces the error.
		return encodeFresh(v)
	}
	msg := e.buf.Bytes()
	if n, ok := splitDefinitions(msg); !ok || n != 0 {
		// A primed encoder writes exactly one value message. One that
		// wrote a definition has sent a type the cached prefix does not
		// cover: drop it and redo this value fresh.
		return encodeFresh(v)
	}
	out := make([]byte, 0, len(c.encPrefix)+len(msg))
	out = append(append(out, c.encPrefix...), msg...)
	c.putEncoder(e)
	return out, nil
}

// encodeFresh is the reference encoding: a new encoder per value.
func encodeFresh(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// getEncoder pops a primed encoder, or primes another when every pooled
// one is in use.
func (c *cellCodec) getEncoder() *primedEncoder {
	c.mu.Lock()
	if n := len(c.encoders); n > 0 {
		e := c.encoders[n-1]
		c.encoders = c.encoders[:n-1]
		c.mu.Unlock()
		return e
	}
	c.mu.Unlock()
	e, _ := c.primeEncoder()
	return e
}

func (c *cellCodec) putEncoder(e *primedEncoder) {
	c.mu.Lock()
	if len(c.encoders) < maxPooledCoders {
		c.encoders = append(c.encoders, e)
	}
	c.mu.Unlock()
}

// decodeCell gob-decodes a cell payload into v (a *T pointing at a zero
// T): the result, and any error, are those of gob.NewDecoder on the
// whole payload.
func decodeCell(data []byte, v any) error {
	c := codecFor(v)
	n, ok := splitDefinitions(data)
	if c == nil || !ok {
		freshDecodes.Add(1)
		return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
	}
	prefix := data[:n]
	if d := c.getDecoder(prefix); d != nil {
		d.r.Reset(data[n:])
		if err := d.dec.Decode(v); err == nil {
			c.putDecoder(prefix, d)
			primedDecodes.Add(1)
			return nil
		}
		// A decoder that returned an error is dropped, and whatever it
		// stored into v before failing is cleared so the fresh decode
		// below starts where a first decode would.
		reflect.ValueOf(v).Elem().SetZero()
	}
	// No decoder has received this prefix yet (or the primed one just
	// failed): decode the whole payload with a new decoder, which is
	// then primed with exactly this prefix.
	freshDecodes.Add(1)
	d := newDecoder()
	d.r.Reset(data)
	if err := d.dec.Decode(v); err != nil {
		return err
	}
	c.putDecoder(prefix, d)
	return nil
}

func (c *cellCodec) getDecoder(prefix []byte) *primedDecoder {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.decoders[string(prefix)]
	if p == nil || len(p.free) == 0 {
		return nil
	}
	d := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return d
}

func (c *cellCodec) putDecoder(prefix []byte, d *primedDecoder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.decoders[string(prefix)]
	if p == nil {
		if len(c.decoders) >= maxPrefixesPerType {
			return
		}
		p = &decoderPool{}
		c.decoders[string(prefix)] = p
	}
	if len(p.free) < maxPooledCoders {
		p.free = append(p.free, d)
	}
}

// splitDefinitions returns the length of data's leading type-definition
// messages. It follows gob's documented framing: a stream is a sequence
// of messages, each an unsigned count followed by that many bytes, the
// first of which encode a signed type id — negative for a definition,
// non-negative for a value. ok is false when the bytes do not parse as
// that (truncated, oversized count) or no value message follows; the
// caller then lets a fresh decoder report whatever is wrong.
func splitDefinitions(data []byte) (n int, ok bool) {
	for {
		count, w := gobUint(data[n:])
		if w == 0 || count > uint64(len(data)-n-w) {
			return 0, false
		}
		id, iw := gobUint(data[n+w : n+w+int(count)])
		if iw == 0 {
			return 0, false
		}
		if id&1 == 0 { // a signed value's low bit is its sign
			return n, true
		}
		n += w + int(count)
	}
}

// gobUint decodes gob's unsigned integer encoding from the head of b:
// one byte below 128, otherwise a byte holding the negated byte count
// followed by that many big-endian bytes. w is 0 when b is too short or
// malformed.
func gobUint(b []byte) (x uint64, w int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) < 1+n {
		return 0, 0
	}
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}
