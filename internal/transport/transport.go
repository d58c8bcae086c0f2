// Package transport provides message transports and a small anti-entropy
// gossip node for running push/pull rumour spreading over real channels —
// the deployment-shaped counterpart of the round-based simulator. Two
// transports are provided behind the same interface: an in-memory one
// (per-node buffered mailboxes) and the gossip daemon (newline-delimited
// JSON over persistent loopback TCP connections; daemon.go).
package transport

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned by Send after the transport has shut down. Every
// transport returns it (possibly wrapped — test with errors.Is), so
// callers can distinguish "the transport is gone" from a transient
// delivery failure deterministically.
var ErrClosed = errors.New("transport: closed")

// Kind enumerates packet types.
type Kind int

const (
	// KindPush carries the sender's known rumours to the receiver.
	KindPush Kind = iota + 1
	// KindPullRequest asks the receiver to answer with its known rumours.
	KindPullRequest
	// KindPullReply answers a pull request.
	KindPullReply
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPush:
		return "push"
	case KindPullRequest:
		return "pull-request"
	case KindPullReply:
		return "pull-reply"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Rumor is one broadcast payload.
type Rumor struct {
	ID      string `json:"id"`
	Payload string `json:"payload"`
}

// Packet is the unit of exchange between nodes.
type Packet struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Kind   Kind    `json:"kind"`
	Rumors []Rumor `json:"rumors,omitempty"`
}

// Transport delivers packets between numbered nodes. Implementations must
// be safe for concurrent Send calls.
type Transport interface {
	// Send delivers p to node `to` (p.To is set by Send).
	Send(to int, p Packet) error
	// Inbox returns the receive channel of a node. The channel is closed
	// when the transport shuts down.
	Inbox(node int) <-chan Packet
	// Close shuts the transport down and releases resources.
	Close() error
}

// InMem is an in-process transport backed by buffered channels.
type InMem struct {
	mu     sync.Mutex
	boxes  []chan Packet
	closed bool
	// Dropped counts sends that found a full mailbox (treated as message
	// loss, which gossip tolerates by design).
	Dropped int
}

var _ Transport = (*InMem)(nil)

// NewInMem creates an in-memory transport for n nodes with the given
// per-node mailbox capacity.
func NewInMem(n, mailbox int) (*InMem, error) {
	if n <= 0 || mailbox <= 0 {
		return nil, fmt.Errorf("transport: NewInMem(n=%d, mailbox=%d) invalid", n, mailbox)
	}
	t := &InMem{boxes: make([]chan Packet, n)}
	for i := range t.boxes {
		t.boxes[i] = make(chan Packet, mailbox)
	}
	return t, nil
}

// Send implements Transport. A full mailbox drops the packet (recorded in
// Dropped) rather than blocking, mirroring a lossy network.
func (t *InMem) Send(to int, p Packet) error {
	if to < 0 || to >= len(t.boxes) {
		return fmt.Errorf("transport: Send to %d out of range [0,%d)", to, len(t.boxes))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	p.To = to
	select {
	case t.boxes[to] <- p:
		return nil
	default:
		t.Dropped++
		return nil
	}
}

// Inbox implements Transport.
func (t *InMem) Inbox(node int) <-chan Packet { return t.boxes[node] }

// Close implements Transport.
func (t *InMem) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	for _, b := range t.boxes {
		close(b)
	}
	return nil
}
