package dist

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"halfback/internal/fleet"
)

// A keyed coordinator and keyed worker run a full distributed sweep:
// the handshake authenticates both ways and stays out of the data path.
func TestAuthKeyedRunEndToEnd(t *testing.T) {
	key := []byte("test-cluster-secret")
	const seed = 21
	meta := testMeta(seed)
	wp := &testProgram{sweeps: 1, cells: 6}
	_, addr := startWorker(t, WorkerOptions{Start: wp.start, Key: key})

	canon := newCanonJournal(t, meta)
	opts := fastOpts(t)
	opts.Key = key
	coord, err := Connect([]string{addr}, canon, meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	prog := &testProgram{sweeps: 1, cells: 6}
	got, err := prog.run(context.Background(), seed, coord.Slots(),
		&fleet.Run{Journal: canon, Dispatch: coord})
	if err != nil {
		t.Fatal(err)
	}
	serial := &testProgram{sweeps: 1, cells: 6}
	want, _ := serial.run(context.Background(), seed, 1, nil)
	for c := range want[0] {
		if got[0][c] != want[0][c] {
			t.Fatalf("cell %d = %+v, want %+v", c, got[0][c], want[0][c])
		}
	}
	if n := prog.executions.Load(); n != 0 {
		t.Fatalf("%d coordinator executions, want 0", n)
	}
}

// The acceptance criterion: a coordinator without the key cannot drive
// a keyed worker — Configure never runs, and the error says why.
func TestAuthUnkeyedCoordinatorRejected(t *testing.T) {
	w, addr := startWorker(t, WorkerOptions{
		Start: (&testProgram{sweeps: 1, cells: 2}).start,
		Key:   []byte("secret"),
	})
	canon := newCanonJournal(t, testMeta(1))
	_, err := Connect([]string{addr}, canon, testMeta(1), fastOpts(t))
	if err == nil || !strings.Contains(err.Error(), "cluster key") {
		t.Fatalf("Connect err = %v, want a cluster-key refusal", err)
	}
	// The worker never configured a session: no program started.
	w.mu.Lock()
	sess := w.sess
	w.mu.Unlock()
	if sess != nil {
		t.Fatal("unauthenticated coordinator got a session configured")
	}
}

// The reverse asymmetry: a keyed coordinator refuses an unkeyed worker
// rather than silently downgrading to an unauthenticated session.
func TestAuthKeyedCoordinatorRefusesUnkeyedWorker(t *testing.T) {
	_, addr := startWorker(t, WorkerOptions{Start: (&testProgram{sweeps: 1, cells: 2}).start})
	canon := newCanonJournal(t, testMeta(1))
	opts := fastOpts(t)
	opts.Key = []byte("secret")
	_, err := Connect([]string{addr}, canon, testMeta(1), opts)
	if err == nil || !strings.Contains(err.Error(), "unauthenticated") {
		t.Fatalf("Connect err = %v, want an unkeyed-worker refusal", err)
	}
}

// Different keys on the two sides fail closed with a clear message.
func TestAuthWrongKeyRejected(t *testing.T) {
	_, addr := startWorker(t, WorkerOptions{
		Start: (&testProgram{sweeps: 1, cells: 2}).start,
		Key:   []byte("worker-key"),
	})
	canon := newCanonJournal(t, testMeta(1))
	opts := fastOpts(t)
	opts.Key = []byte("coordinator-key")
	_, err := Connect([]string{addr}, canon, testMeta(1), opts)
	if err == nil || !strings.Contains(err.Error(), "cluster key mismatch") {
		t.Fatalf("Connect err = %v, want a key-mismatch rejection", err)
	}
}

// Without a key the coordinator refuses non-loopback worker addresses
// outright — before a single byte is dialed.
func TestAuthNonLoopbackRefusedWithoutKey(t *testing.T) {
	canon := newCanonJournal(t, testMeta(1))
	_, err := Connect([]string{"192.0.2.7:9001"}, canon, testMeta(1), fastOpts(t))
	if err == nil || !strings.Contains(err.Error(), "cluster key") {
		t.Fatalf("Connect err = %v, want a refusing-unauthenticated error", err)
	}
}

// A worker refuses a non-loopback bind without a key (exit code 2).
func TestServeWorkerRefusesNonLoopbackBindWithoutKey(t *testing.T) {
	var msgs []string
	code := ServeWorker("0.0.0.0:0", WorkerOptions{
		Start: (&testProgram{sweeps: 1, cells: 1}).start,
		Logf:  func(f string, a ...any) { msgs = append(msgs, f) },
	})
	if code != 2 {
		t.Fatalf("ServeWorker exit = %d, want 2", code)
	}
	if len(msgs) == 0 || !strings.Contains(msgs[0], "cluster key") {
		t.Fatalf("refusal message %q should name the cluster key", msgs)
	}
}

// A peer that speaks raw net/rpc (or any garbage) at a keyed worker is
// cut off during the handshake: no RPC is ever served to it.
func TestGarbageAndBareRPCRejectedByKeyedWorker(t *testing.T) {
	_, addr := startWorker(t, WorkerOptions{
		Start: (&testProgram{sweeps: 1, cells: 2}).start,
		Key:   []byte("secret"),
	})

	// Unauthenticated handshake attempt: read the hello, answer with an
	// empty proof — the worker must reject, naming the requirement.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	kind, payload, err := readFrame(conn)
	if err != nil || kind != frameHello {
		t.Fatalf("hello = (%d, %v)", kind, err)
	}
	if payload[2]&helloFlagAuth == 0 {
		t.Fatal("keyed worker's hello does not demand auth")
	}
	if err := writeFrame(conn, frameProof, nil); err != nil {
		t.Fatal(err)
	}
	kind, payload, err = readFrame(conn)
	if err != nil || kind != frameReject {
		t.Fatalf("reply = (%d, %q, %v), want a reject frame", kind, payload, err)
	}
	if !strings.Contains(string(payload), "authenticate") {
		t.Fatalf("reject reason %q should say authentication is required", payload)
	}

	// Bare net/rpc with no handshake at all: the gob preamble is not a
	// handshake frame, so the connection dies and the call errors.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	client := rpc.NewClient(conn2)
	defer client.Close()
	callErr := make(chan error, 1)
	go func() {
		callErr <- client.Call("Worker.Configure",
			&ConfigureArgs{Gen: 1, Proto: protoVersion, Meta: testMeta(1)}, &ConfigureReply{})
	}()
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("bare RPC Configure succeeded against a keyed worker")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("bare RPC call neither failed nor completed")
	}
}

// The version check happens before auth and names both versions plus
// the remedy.
func TestProtoMismatchMessageNamesBothVersions(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		stale := protoVersion + 7
		hello := []byte{byte(stale >> 8), byte(stale), 0}
		writeFrame(server, frameHello, hello)
	}()
	err := clientHandshake(client, nil)
	if err == nil {
		t.Fatal("mismatched proto accepted")
	}
	for _, want := range []string{
		fmt.Sprintf("v%d", protoVersion), fmt.Sprintf("v%d", protoVersion+7), "rebuild both sides",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error %q should contain %q", err, want)
		}
	}
	if !isPermanent(err) {
		t.Fatal("proto mismatch should be permanent (no redial)")
	}
}

// ResolveKey: flag beats env, env is the fallback, whitespace trims,
// empty means unkeyed.
func TestResolveKey(t *testing.T) {
	t.Setenv(KeyEnv, " env-key ")
	if got := string(ResolveKey("flag-key")); got != "flag-key" {
		t.Fatalf("flag precedence: %q", got)
	}
	if got := string(ResolveKey("")); got != "env-key" {
		t.Fatalf("env fallback: %q", got)
	}
	t.Setenv(KeyEnv, "")
	if got := ResolveKey("  "); got != nil {
		t.Fatalf("blank key resolved to %q", got)
	}
}

func TestLoopbackAddr(t *testing.T) {
	for addr, want := range map[string]bool{
		"127.0.0.1:9001": true,
		"127.8.4.4:80":   true,
		"[::1]:9001":     true,
		"localhost:9001": true,
		"localhost":      true,
		"::1":            true,
		"0.0.0.0:9001":   false,
		":9001":          false,
		"":               false,
		"10.1.2.3:9001":  false,
		"[::]:9001":      false,
		"example.com:80": false,
	} {
		if got := loopbackAddr(addr); got != want {
			t.Errorf("loopbackAddr(%q) = %v, want %v", addr, got, want)
		}
	}
}

// FuzzHandshakeFrame hammers the pure frame parser: it must never
// panic, and every frame appendFrame produces must round-trip.
func FuzzHandshakeFrame(f *testing.F) {
	f.Add(appendFrame(nil, frameHello, []byte{0, 2, 1, 9, 9, 9}))
	f.Add(appendFrame(nil, frameProof, bytes.Repeat([]byte{0xAB}, nonceLen+macLen)))
	f.Add(appendFrame(nil, frameAccept, bytes.Repeat([]byte{0xCD}, macLen)))
	f.Add(appendFrame(nil, frameReject, []byte("bad credentials")))
	f.Add([]byte("HBAU"))
	f.Add([]byte("not a frame at all"))
	f.Add(appendFrame(nil, frameHello, nil)[:5])
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, rest, err := parseFrame(data)
		if err != nil {
			return
		}
		if len(payload) > maxFramePayload {
			t.Fatalf("accepted oversized payload %d", len(payload))
		}
		// Round-trip: re-encoding what was parsed reproduces the input
		// prefix exactly.
		if got := appendFrame(nil, kind, payload); !bytes.Equal(got, data[:len(data)-len(rest)]) {
			t.Fatalf("parse/append round-trip mismatch:\nin  %x\nout %x", data[:len(data)-len(rest)], got)
		}
	})
}
