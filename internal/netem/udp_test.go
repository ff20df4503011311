package netem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// collectors gathers messages with a wait helper.
type collector struct {
	mu   sync.Mutex
	msgs []Message
}

func (c *collector) handle(m Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *collector) waitFor(t *testing.T, n int) []Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]Message(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Fatalf("timed out with %d/%d messages", len(c.msgs), n)
	return nil
}

func newUDP(t *testing.T) *UDPTransport {
	t.Helper()
	u := NewUDPTransport(testClock(t))
	t.Cleanup(func() {
		if err := u.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return u
}

// testClock is the wall clock a test transport delivers on.
func testClock(t *testing.T) *WallClock {
	t.Helper()
	c, err := NewWallClock(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUDPRoundTrip(t *testing.T) {
	u := newUDP(t)
	var rx collector
	if err := u.Register(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Register(1, rx.handle); err != nil {
		t.Fatal(err)
	}
	if err := u.Send(0, 1, []byte("beat")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msgs := rx.waitFor(t, 1)
	if msgs[0].From != 0 || msgs[0].To != 1 || string(msgs[0].Payload) != "beat" {
		t.Fatalf("got %+v", msgs[0])
	}
}

func TestUDPManyMessages(t *testing.T) {
	u := newUDP(t)
	var rx collector
	if err := u.Register(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Register(1, rx.handle); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := u.Send(0, 1, []byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		// Loopback UDP rarely drops, but pace lightly to avoid socket
		// buffer overruns on tiny systems.
		if i%50 == 49 {
			time.Sleep(time.Millisecond)
		}
	}
	// UDP may drop; expect the vast majority on loopback.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rx.mu.Lock()
		got := len(rx.msgs)
		rx.mu.Unlock()
		if got >= n*9/10 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	rx.mu.Lock()
	defer rx.mu.Unlock()
	t.Fatalf("only %d/%d messages arrived on loopback", len(rx.msgs), n)
}

func TestUDPErrors(t *testing.T) {
	u := newUDP(t)
	if err := u.Register(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Register(0, func(Message) {}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate register: %v", err)
	}
	if err := u.Send(0, 9, nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown recipient: %v", err)
	}
	if err := u.Send(9, 0, nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown sender: %v", err)
	}
	if err := u.Send(0, 0, make([]byte, maxUDPPayload+1)); !errors.Is(err, ErrTooLong) {
		t.Fatalf("oversized payload: %v", err)
	}
}

func TestUDPClose(t *testing.T) {
	u := NewUDPTransport(testClock(t))
	if err := u.Register(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := u.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if err := u.Send(0, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: %v", err)
	}
	if err := u.Register(1, func(Message) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close: %v", err)
	}
}

func TestUDPIgnoresGarbageAndMisdelivery(t *testing.T) {
	u := newUDP(t)
	var rx collector
	if err := u.Register(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Register(1, rx.handle); err != nil {
		t.Fatal(err)
	}
	// Send a valid message after garbage; only the valid one arrives.
	u.mu.Lock()
	src := u.nodes[0].conn
	dst := u.addrs[1]
	u.mu.Unlock()
	if _, err := src.WriteToUDP([]byte{1, 2, 3}, dst); err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, udpHeader)
	bad[0] = 0xFF // wrong magic
	if _, err := src.WriteToUDP(bad, dst); err != nil {
		t.Fatal(err)
	}
	if err := u.Send(0, 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	msgs := rx.waitFor(t, 1)
	if string(msgs[0].Payload) != "ok" {
		t.Fatalf("got %+v", msgs[0])
	}
	rx.mu.Lock()
	defer rx.mu.Unlock()
	if len(rx.msgs) != 1 {
		t.Fatalf("garbage reached the handler: %d messages", len(rx.msgs))
	}
}

func TestUDPFrameLength(t *testing.T) {
	// The wire frame is exactly the documented 10-byte header — 2-byte
	// magic, 4-byte sender, 4-byte recipient — plus the payload.
	payload := []byte{0xDE, 0xAD, 0xBE}
	pkt := encodeFrame(3, 7, payload)
	if len(pkt) != udpHeader+len(payload) {
		t.Fatalf("frame length %d, want %d", len(pkt), udpHeader+len(payload))
	}
	if udpHeader != 2+4+4 {
		t.Fatalf("udpHeader = %d, want 2+4+4", udpHeader)
	}
	if got := uint16(pkt[0])<<8 | uint16(pkt[1]); got != udpMagic {
		t.Fatalf("magic = %#x, want %#x", got, udpMagic)
	}
	if !bytes.Equal(pkt[udpHeader:], payload) {
		t.Fatalf("payload = %x", pkt[udpHeader:])
	}
	if got := len(encodeFrame(0, 0, nil)); got != udpHeader {
		t.Fatalf("empty frame length %d, want %d", got, udpHeader)
	}
}

func TestUDPClosedBeatsPayloadValidation(t *testing.T) {
	// After Close, even an oversized payload reports ErrClosed: the
	// transport's lifecycle error wins over payload validation.
	u := NewUDPTransport(testClock(t))
	if err := u.Register(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	err := u.Send(0, 0, make([]byte, maxUDPPayload+1))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Send on closed transport = %v, want ErrClosed", err)
	}
	if errors.Is(err, ErrTooLong) {
		t.Fatalf("closed transport still validated the payload: %v", err)
	}
}
