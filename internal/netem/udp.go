package netem

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// UDPTransport carries beats over real UDP sockets — the deployment
// substrate the 1998 paper's companion work ("alert communication
// primitives above TCP") targets. Each registered node binds its own
// socket; a 10-byte header (2-byte magic, 4-byte sender, 4-byte
// recipient) frames the payload.
// UDP supplies the loss/duplication/reordering semantics for real
// networks; for controlled experiments prefer Network.
//
// Deliveries run on the transport's WallClock: each receive goroutine
// holds the clock's mutex while its handler runs, so the nodes see their
// deliveries and timer expiries one at a time (see netem.Clock). mu only
// guards the transport's own tables.
type UDPTransport struct {
	clock  *WallClock
	mu     sync.Mutex
	nodes  map[NodeID]*udpNode
	addrs  map[NodeID]*net.UDPAddr
	closed bool
	wg     sync.WaitGroup
}

type udpNode struct {
	conn    *net.UDPConn
	handler Handler
}

// udpMagic guards against stray datagrams.
const udpMagic = 0x4842 // "HB"

// udpHeader is the wire prefix: magic (2) + from (4) + to (4).
const udpHeader = 10

var (
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("netem: transport closed")
	// ErrTooLong reports an oversized payload.
	ErrTooLong = errors.New("netem: payload too long")
)

// maxUDPPayload bounds the heartbeat payload; beats are 4 bytes, so this
// is generous.
const maxUDPPayload = 1024

// NewUDPTransport creates an empty UDP transport whose deliveries run on
// clock.
//
//lint:allow unused-export ROADMAP item 10's real-time cluster is its first caller; TestRealTimeOverUDP drives it today
func NewUDPTransport(clock *WallClock) *UDPTransport {
	return &UDPTransport{
		clock: clock,
		nodes: make(map[NodeID]*udpNode),
		addrs: make(map[NodeID]*net.UDPAddr),
	}
}

var _ Transport = (*UDPTransport)(nil)

// Register binds a loopback socket for the node and starts its receive
// loop. The chosen address becomes visible to the other nodes of this
// transport instance.
func (u *UDPTransport) Register(id NodeID, h Handler) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return fmt.Errorf("netem: registering node %d: %w", id, ErrClosed)
	}
	if _, ok := u.nodes[id]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return fmt.Errorf("netem: binding node %d: %w", id, err)
	}
	n := &udpNode{conn: conn, handler: h}
	u.nodes[id] = n
	u.addrs[id] = conn.LocalAddr().(*net.UDPAddr)
	u.wg.Add(1)
	go u.receiveLoop(id, n)
	return nil
}

// receiveLoop decodes datagrams and dispatches them to the handler, on the
// clock.
func (u *UDPTransport) receiveLoop(id NodeID, n *udpNode) {
	defer u.wg.Done()
	buf := make([]byte, udpHeader+maxUDPPayload)
	for {
		sz, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		from, to, payload, err := decodeFrame(buf[:sz])
		if err != nil || to != id {
			continue // stray or misdelivered
		}
		msg := Message{From: from, To: to, Payload: append([]byte(nil), payload...)}
		u.clock.Do(func() { n.handler(msg) })
	}
}

// errBadFrame reports a datagram that is not a frame of this transport.
var errBadFrame = errors.New("netem: malformed UDP frame")

// decodeFrame is the inverse of encodeFrame: it splits a received datagram
// into its addressing and its payload, which aliases frame. A datagram
// shorter than the header or without the magic is malformed.
func decodeFrame(frame []byte) (from, to NodeID, payload []byte, err error) {
	if len(frame) < udpHeader || uint16(frame[0])<<8|uint16(frame[1]) != udpMagic {
		return 0, 0, nil, errBadFrame
	}
	return getNodeID(frame[2:6]), getNodeID(frame[6:10]), frame[udpHeader:], nil
}

// Send implements Transport. A closed transport is reported before any
// payload validation, so shutdown races surface as ErrClosed, not as a
// spurious payload error.
//
//lint:allow noalloc-closure real-network transport; the noalloc contract covers the in-process sim path, not wall-clock I/O
func (u *UDPTransport) Send(from, to NodeID, payload []byte) error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return fmt.Errorf("netem: send %d->%d: %w", from, to, ErrClosed)
	}
	src, ok := u.nodes[from]
	if !ok {
		u.mu.Unlock()
		return fmt.Errorf("%w: sender %d", ErrUnknownNode, from)
	}
	dst, ok := u.addrs[to]
	if !ok {
		u.mu.Unlock()
		return fmt.Errorf("%w: recipient %d", ErrUnknownNode, to)
	}
	u.mu.Unlock()

	if len(payload) > maxUDPPayload {
		return fmt.Errorf("netem: send %d->%d: %w: %d bytes", from, to, ErrTooLong, len(payload))
	}
	pkt := encodeFrame(from, to, payload)
	// Datagram sends are best-effort by design; a full socket buffer is
	// indistinguishable from network loss, which the protocol tolerates.
	if _, err := src.conn.WriteToUDP(pkt, dst); err != nil {
		return nil
	}
	return nil
}

// encodeFrame builds the wire frame: udpHeader bytes of framing followed
// by the payload.
func encodeFrame(from, to NodeID, payload []byte) []byte {
	pkt := make([]byte, udpHeader+len(payload))
	pkt[0] = byte(udpMagic >> 8)
	pkt[1] = byte(udpMagic & 0xFF)
	putNodeID(pkt[2:6], from)
	putNodeID(pkt[6:10], to)
	copy(pkt[udpHeader:], payload)
	return pkt
}

func putNodeID(b []byte, id NodeID) {
	v := uint32(int32(id))
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func getNodeID(b []byte) NodeID {
	return NodeID(int32(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])))
}

// Close shuts every socket and waits for the receive loops to exit. It
// must not run on the clock (inside WallClock.Do or a handler): a receive
// loop may be waiting for the clock.
func (u *UDPTransport) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	conns := make([]*net.UDPConn, 0, len(u.nodes))
	for _, n := range u.nodes {
		//lint:allow map-order every socket is closed regardless of order, and Close returns only the first error of an already-unordered set
		conns = append(conns, n.conn)
	}
	u.mu.Unlock()
	var firstErr error
	for _, c := range conns {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	u.wg.Wait()
	return firstErr
}
