package paxos

import (
	"fmt"
	"sync"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/transport"
)

// AcceptorConfig configures one acceptor of one group.
type AcceptorConfig struct {
	GroupID uint32
	// ID is this acceptor's index within the group (0-based).
	ID uint32
	// Addr is the endpoint the acceptor listens on.
	Addr transport.Addr
	// Transport carries the acceptor's traffic.
	Transport transport.Transport
	// CPU optionally meters the acceptor's busy time.
	CPU *bench.RoleMeter
}

// Acceptor is the durable voting role of Paxos. It maintains a single
// promised ballot covering all instances (Multi-Paxos) and a map of
// accepted (instance, ballot, value) triples. State is kept in memory
// and the accepted log is never truncated.
type Acceptor struct {
	cfg AcceptorConfig
	ep  transport.Endpoint

	mu       sync.Mutex
	promised Ballot
	accepted map[uint64]acceptedEntry

	done chan struct{}
}

// StartAcceptor launches an acceptor; it runs until Close.
func StartAcceptor(cfg AcceptorConfig) (*Acceptor, error) {
	ep, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("acceptor %d/%d listen: %w", cfg.GroupID, cfg.ID, err)
	}
	a := &Acceptor{
		cfg:      cfg,
		ep:       ep,
		accepted: make(map[uint64]acceptedEntry),
		done:     make(chan struct{}),
	}
	go a.run()
	return a, nil
}

// Close stops the acceptor and waits for its goroutine to exit.
func (a *Acceptor) Close() error {
	err := a.ep.Close()
	<-a.done
	return err
}

// Promised returns the current promised ballot (for tests).
func (a *Acceptor) Promised() Ballot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.promised
}

// AcceptedCount returns the number of accepted instances (for tests).
func (a *Acceptor) AcceptedCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.accepted)
}

func (a *Acceptor) run() {
	defer close(a.done)
	for frame := range a.ep.Recv() {
		t0 := time.Now()
		a.handle(frame)
		a.cfg.CPU.Add(time.Since(t0))
	}
}

func (a *Acceptor) handle(frame []byte) {
	m, err := decodeMessage(frame)
	if err != nil || m.Group != a.cfg.GroupID {
		return
	}
	switch m.Type {
	case msgPhase1a:
		a.handlePhase1a(m)
	case msgPhase2a:
		a.handlePhase2a(m)
	default:
		// Acceptors ignore everything else.
	}
}

func (a *Acceptor) handlePhase1a(m *message) {
	a.mu.Lock()
	if m.Ballot <= a.promised {
		promised := a.promised
		a.mu.Unlock()
		a.send(m.Addr, &message{
			Type:   msgNack,
			Group:  a.cfg.GroupID,
			Ballot: promised,
		})
		return
	}
	a.promised = m.Ballot
	// Report accepted values from the requested instance onward so the
	// new coordinator can complete in-flight instances.
	var entries []acceptedEntry
	for inst, e := range a.accepted {
		if inst >= m.Instance {
			entries = append(entries, acceptedEntry{Instance: inst, Ballot: e.Ballot, Value: e.Value})
		}
	}
	a.mu.Unlock()
	a.send(m.Addr, &message{
		Type:     msgPhase1b,
		Group:    a.cfg.GroupID,
		Ballot:   m.Ballot,
		Acceptor: a.cfg.ID,
		Entries:  entries,
	})
}

func (a *Acceptor) handlePhase2a(m *message) {
	a.mu.Lock()
	if m.Ballot < a.promised {
		promised := a.promised
		a.mu.Unlock()
		a.send(m.Addr, &message{
			Type:   msgNack,
			Group:  a.cfg.GroupID,
			Ballot: promised,
		})
		return
	}
	a.promised = m.Ballot
	a.accepted[m.Instance] = acceptedEntry{Instance: m.Instance, Ballot: m.Ballot, Value: m.Value}
	a.mu.Unlock()
	a.send(m.Addr, &message{
		Type:     msgPhase2b,
		Group:    a.cfg.GroupID,
		Ballot:   m.Ballot,
		Instance: m.Instance,
		Acceptor: a.cfg.ID,
	})
}

func (a *Acceptor) send(to transport.Addr, m *message) {
	if to == "" {
		return
	}
	// Best effort: the coordinator retries through protocol timeouts.
	_ = a.cfg.Transport.Send(to, encodeMessage(m))
}
