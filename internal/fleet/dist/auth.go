package dist

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"
)

// The session handshake runs on every coordinator→worker connection
// before net/rpc takes over. It does two jobs:
//
//   - Version agreement: the worker's hello carries protoVersion, so a
//     coordinator built from different source fails immediately with an
//     error naming both versions instead of a gob decode mystery.
//
//   - Mutual authentication: with a shared cluster key, a
//     challenge/response in each direction (HMAC-SHA256 over both
//     sides' nonces, direction-bound labels) proves both ends hold the
//     key before any Configure meta or journal bytes move. The key
//     never crosses the wire. This is authentication, not encryption —
//     the threat model is "nobody without the key can join or drive
//     the fleet", matching the multi-host deployment story (README);
//     confidentiality on hostile networks still wants a tunnel.
//
// Frames are length-prefixed and tiny (≤ maxFramePayload) so a
// malicious or confused peer cannot make either side buffer garbage,
// and the pure parser is fuzzed (FuzzHandshakeFrame).

// KeyEnv is the environment variable both CLIs read the cluster key
// from when -cluster-key is not given. The environment (not argv) is
// also how forked -distributed workers inherit the key, keeping it out
// of ps(1).
const KeyEnv = "HALFBACK_CLUSTER_KEY"

// ResolveKey picks the cluster key: the flag value wins, then KeyEnv.
// Empty means unkeyed (loopback-only operation).
func ResolveKey(flagVal string) []byte {
	v := strings.TrimSpace(flagVal)
	if v == "" {
		v = strings.TrimSpace(os.Getenv(KeyEnv))
	}
	if v == "" {
		return nil
	}
	return []byte(v)
}

// loopbackAddr reports whether addr (host:port or bare host) is
// unambiguously loopback. Wildcard binds ("", "0.0.0.0", "::") and
// non-loopback IPs are not; hostnames other than "localhost" are not
// (no resolving — the check must be conservative).
func loopbackAddr(addr string) bool {
	host := addr
	if h, _, err := net.SplitHostPort(addr); err == nil {
		host = h
	}
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// Handshake frame wire format: magic(4) ‖ version(1) ‖ kind(1) ‖
// payloadLen(uint16 BE) ‖ payload.
const (
	frameVersion    = 1
	frameHeaderLen  = 8
	maxFramePayload = 512

	frameHello  = 1 // worker → coordinator: proto ‖ flags ‖ [nonceS]
	frameProof  = 2 // coordinator → worker: [nonceC ‖ mac] (empty when unkeyed)
	frameAccept = 3 // worker → coordinator: [mac] (empty when unkeyed)
	frameReject = 4 // worker → coordinator: reason string
)

var frameMagic = [4]byte{'H', 'B', 'A', 'U'}

const (
	nonceLen = 24
	macLen   = sha256.Size

	helloFlagAuth = 1 << 0

	labelCoordinator = "halfback-coordinator"
	labelWorker      = "halfback-worker"
)

// appendFrame encodes one frame onto dst.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	if len(payload) > maxFramePayload {
		panic("dist: handshake frame payload too large")
	}
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, frameVersion, kind, byte(len(payload)>>8), byte(len(payload)))
	return append(dst, payload...)
}

// parseFrame decodes one frame from the front of b, returning the
// remainder. Pure — the fuzz target for the decoder.
func parseFrame(b []byte) (kind byte, payload, rest []byte, err error) {
	if len(b) < frameHeaderLen {
		return 0, nil, nil, fmt.Errorf("dist: handshake frame truncated (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != frameMagic {
		return 0, nil, nil, errors.New("dist: not a halfback handshake frame (bad magic)")
	}
	if b[4] != frameVersion {
		return 0, nil, nil, fmt.Errorf("dist: handshake frame version %d, want %d", b[4], frameVersion)
	}
	kind = b[5]
	n := int(b[6])<<8 | int(b[7])
	if n > maxFramePayload {
		return 0, nil, nil, fmt.Errorf("dist: handshake frame payload %d exceeds %d", n, maxFramePayload)
	}
	if len(b) < frameHeaderLen+n {
		return 0, nil, nil, fmt.Errorf("dist: handshake frame truncated (want %d payload bytes, have %d)", n, len(b)-frameHeaderLen)
	}
	return kind, b[frameHeaderLen : frameHeaderLen+n], b[frameHeaderLen+n:], nil
}

// readFrame reads exactly one frame from r.
func readFrame(r io.Reader) (kind byte, payload []byte, err error) {
	hdr := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := int(hdr[6])<<8 | int(hdr[7])
	if n <= maxFramePayload {
		hdr = append(hdr, make([]byte, n)...)
		if _, err := io.ReadFull(r, hdr[frameHeaderLen:]); err != nil {
			return 0, nil, err
		}
	}
	kind, payload, _, err = parseFrame(hdr)
	return kind, payload, err
}

func writeFrame(w io.Writer, kind byte, payload []byte) error {
	_, err := w.Write(appendFrame(nil, kind, payload))
	return err
}

// authMAC is the handshake's HMAC: direction-bound by label, over both
// nonces in the direction's order, so a transcript replayed at the
// other role (or with nonces swapped) never verifies.
func authMAC(key []byte, label string, a, b []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write([]byte(label))
	m.Write(a)
	m.Write(b)
	return m.Sum(nil)
}

// permanentError marks handshake failures that redialing cannot fix —
// wrong key, missing key, protocol mismatch. The coordinator's
// reconnect loop gives up immediately on these instead of hammering a
// worker that will refuse forever.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

func permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err}
}

func isPermanent(err error) bool {
	var p permanentError
	return errors.As(err, &p)
}

// serverHandshake is the worker side: send the hello (version + auth
// demand + challenge), verify the coordinator's proof, answer with the
// worker's own proof. With an empty key the exchange degenerates to a
// version check.
func serverHandshake(conn net.Conn, key []byte) error {
	hello := []byte{byte(protoVersion >> 8), byte(protoVersion)}
	var nonceS [nonceLen]byte
	if len(key) > 0 {
		if _, err := rand.Read(nonceS[:]); err != nil {
			return fmt.Errorf("dist: handshake nonce: %w", err)
		}
		hello = append(hello, helloFlagAuth)
		hello = append(hello, nonceS[:]...)
	} else {
		hello = append(hello, 0)
	}
	if err := writeFrame(conn, frameHello, hello); err != nil {
		return fmt.Errorf("dist: handshake: sending hello: %w", err)
	}

	kind, payload, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("dist: handshake: reading proof: %w", err)
	}
	if kind != frameProof {
		return permanent(fmt.Errorf("dist: handshake: unexpected frame kind %d (want proof)", kind))
	}
	if len(key) == 0 {
		if len(payload) != 0 {
			err := errors.New("dist: coordinator presented credentials but this worker has no cluster key — start the worker with the same -cluster-key / " + KeyEnv)
			reject(conn, err)
			return permanent(err)
		}
		return writeFrame(conn, frameAccept, nil)
	}
	if len(payload) != nonceLen+macLen {
		err := errors.New("dist: coordinator did not authenticate; this worker requires the cluster key (-cluster-key / " + KeyEnv + ")")
		reject(conn, err)
		return permanent(err)
	}
	nonceC := payload[:nonceLen]
	if !hmac.Equal(payload[nonceLen:], authMAC(key, labelCoordinator, nonceS[:], nonceC)) {
		err := errors.New("dist: coordinator presented bad credentials (cluster key mismatch)")
		reject(conn, err)
		return permanent(err)
	}
	return writeFrame(conn, frameAccept, authMAC(key, labelWorker, nonceC, nonceS[:]))
}

// reject tells the peer why before the connection dies; best-effort.
func reject(conn net.Conn, cause error) {
	msg := cause.Error()
	if len(msg) > maxFramePayload {
		msg = msg[:maxFramePayload]
	}
	writeFrame(conn, frameReject, []byte(msg)) //nolint:errcheck // peer may already be gone
}

// clientHandshake is the coordinator side of serverHandshake.
func clientHandshake(conn net.Conn, key []byte) error {
	kind, payload, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("dist: handshake: reading worker hello (is the peer a halfback worker?): %w", err)
	}
	if kind != frameHello || len(payload) < 3 {
		return permanent(errors.New("dist: handshake: malformed worker hello"))
	}
	proto := int(payload[0])<<8 | int(payload[1])
	if proto != protoVersion {
		return permanent(fmt.Errorf("dist: protocol version mismatch: this coordinator speaks v%d, the worker speaks v%d — one side is a stale build; rebuild both sides from the same source", protoVersion, proto))
	}
	wantAuth := payload[2]&helloFlagAuth != 0
	switch {
	case wantAuth && len(key) == 0:
		return permanent(errors.New("dist: worker requires a cluster key and this coordinator has none — set -cluster-key or " + KeyEnv))
	case !wantAuth && len(key) > 0:
		return permanent(errors.New("dist: this coordinator has a cluster key but the worker is unkeyed — refusing to run unauthenticated; start the worker with the same -cluster-key / " + KeyEnv))
	case !wantAuth:
		if err := writeFrame(conn, frameProof, nil); err != nil {
			return fmt.Errorf("dist: handshake: sending proof: %w", err)
		}
		kind, _, err := readFrame(conn)
		if err != nil {
			return fmt.Errorf("dist: handshake: reading accept: %w", err)
		}
		if kind != frameAccept {
			return permanent(fmt.Errorf("dist: handshake: unexpected frame kind %d (want accept)", kind))
		}
		return nil
	}

	if len(payload) != 3+nonceLen {
		return permanent(errors.New("dist: handshake: malformed worker challenge"))
	}
	nonceS := payload[3:]
	var nonceC [nonceLen]byte
	if _, err := rand.Read(nonceC[:]); err != nil {
		return fmt.Errorf("dist: handshake nonce: %w", err)
	}
	proof := append(append(make([]byte, 0, nonceLen+macLen), nonceC[:]...),
		authMAC(key, labelCoordinator, nonceS, nonceC[:])...)
	if err := writeFrame(conn, frameProof, proof); err != nil {
		return fmt.Errorf("dist: handshake: sending proof: %w", err)
	}
	kind, payload, err = readFrame(conn)
	if err != nil {
		return fmt.Errorf("dist: handshake: reading accept: %w", err)
	}
	switch kind {
	case frameReject:
		return permanent(fmt.Errorf("dist: worker rejected handshake: %s", payload))
	case frameAccept:
	default:
		return permanent(fmt.Errorf("dist: handshake: unexpected frame kind %d (want accept)", kind))
	}
	if len(payload) != macLen || !hmac.Equal(payload, authMAC(key, labelWorker, nonceC[:], nonceS)) {
		return permanent(errors.New("dist: worker presented bad credentials (cluster key mismatch)"))
	}
	return nil
}

// handshakeTimed runs fn against conn with a hard deadline enforced by
// closing the connection — not SetDeadline, because chaos-grade
// pathologies (and the injector that simulates them) can stall a
// connection in ways deadlines never see; Close unblocks everything.
func handshakeTimed(conn net.Conn, timeout time.Duration, fn func(net.Conn) error) error {
	done := make(chan error, 1)
	go func() { done <- fn(conn) }()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		conn.Close()
		<-done
		return fmt.Errorf("dist: handshake timed out after %v", timeout)
	}
}
